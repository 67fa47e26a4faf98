#include "core/scratch.hpp"

#include <stdexcept>

#include "cube/hypercube.hpp"
#include "obs/metrics.hpp"
#include "util/bitops.hpp"

namespace hhc::core {

namespace {

// Fan-table record layout at m (n = 2^m cluster positions), one record per
// (apex, endpoint set), stride m + n - 1 bytes:
//
//   bytes [0, m)      walk length in vertices after the apex, one byte per
//                     endpoint in ascending endpoint order; 0 = not filled
//                     (a walk always reaches an endpoint != apex);
//   bytes [m, m+n-1)  the walks' vertices after the apex, concatenated in
//                     the same order. The walks share only the apex, so
//                     together they hold at most n - 1 vertices.
//
// Records are indexed apex * C(n-1, m) + rank, where rank is the endpoint
// set's combinadic rank among the m-subsets of the n - 1 positions != apex.
constexpr std::size_t kMaxPositions =
    std::size_t{1} << ConstructionScratch::kMaxTabledFanM;

// kBinomial[n][k] = C(n, k) for n < 2^kMaxTabledFanM, k <= kMaxTabledFanM.
constexpr auto kBinomial = [] {
  std::array<std::array<std::uint32_t, ConstructionScratch::kMaxTabledFanM + 1>,
             kMaxPositions>
      c{};
  for (std::size_t n = 0; n < c.size(); ++n) {
    c[n][0] = 1;
    for (std::size_t k = 1; k < c[n].size() && k <= n; ++k) {
      c[n][k] = c[n - 1][k - 1] + c[n - 1][k];
    }
  }
  return c;
}();

std::size_t record_stride(unsigned m) {
  return m + (std::size_t{1} << m) - 1;
}

std::size_t record_count(unsigned m) {
  const std::size_t n = std::size_t{1} << m;
  return n * kBinomial[n - 1][m];
}

// Index of the record for (apex, endpoint bitmask) at m.
std::size_t record_index(unsigned m, graph::Vertex apex, std::uint32_t mask) {
  const std::uint32_t below = (std::uint32_t{1} << apex) - 1;
  std::uint32_t rest = (mask & below) | ((mask >> 1) & ~below);
  std::size_t rank = 0;
  for (unsigned j = 1; rest != 0; ++j) {
    rank += kBinomial[bits::lowest_set(rest)][j];
    rest &= rest - 1;
  }
  const std::size_t n = std::size_t{1} << m;
  return apex * kBinomial[n - 1][m] + rank;
}

}  // namespace

const graph::AdjacencyList& ConstructionScratch::cluster_graph(unsigned m) {
  if (m >= cluster_graphs_.size()) {
    throw std::invalid_argument("ConstructionScratch: m out of range");
  }
  auto& slot = cluster_graphs_[m];
  if (!slot.has_value()) slot.emplace(cube::Hypercube{m}.explicit_graph());
  return *slot;
}

std::span<const graph::VertexPath> ConstructionScratch::exit_fans(
    unsigned m, graph::Vertex s, std::span<const graph::Vertex> targets) {
  return memo_fan(m, s, targets, /*reversed=*/false, exit_fan, exit_walks_);
}

std::span<const graph::VertexPath> ConstructionScratch::entry_fans(
    unsigned m, std::span<const graph::Vertex> sources, graph::Vertex t) {
  return memo_fan(m, t, sources, /*reversed=*/true, entry_fan, entry_walks_);
}

std::span<const graph::VertexPath> ConstructionScratch::memo_fan(
    unsigned m, graph::Vertex apex, std::span<const graph::Vertex> ends,
    bool reversed, graph::FanWorkspace& solver,
    std::vector<graph::VertexPath>& walks) {
  if (ends.size() != m) {
    throw std::logic_error("fan table: route selection gave a fan of the "
                           "wrong width");
  }
  if (m > kMaxTabledFanM) {
    return reversed ? solver.reverse_fan(cluster_graph(m), ends, apex)
                    : solver.fan(cluster_graph(m), apex, ends);
  }

  const std::size_t n = std::size_t{1} << m;
  std::vector<std::uint8_t>& table = fan_tables_[m];
  if (table.empty()) {
    table.assign(record_count(m) * record_stride(m), 0);
    for (auto* decoded : {&exit_walks_, &entry_walks_}) {
      if (decoded->size() < m) decoded->resize(m);
      for (graph::VertexPath& walk : *decoded) walk.reserve(n);
    }
  }

  if (apex >= n) throw std::invalid_argument("fan table: bad fan apex");
  std::uint32_t mask = 0;
  for (const graph::Vertex end : ends) {
    if (end >= n || end == apex || bits::test(mask, end)) {
      throw std::invalid_argument("fan table: bad fan endpoint");
    }
    mask |= std::uint32_t{1} << end;
  }
  std::uint8_t* const record =
      table.data() + record_index(m, apex, mask) * record_stride(m);
  std::uint8_t* const lengths = record;
  std::uint8_t* const nodes = record + m;

  if (lengths[0] == 0) {
    // Fill: solve the fan once, in ascending endpoint order.
    static obs::Counter& fills =
        obs::MetricRegistry::global().counter("construct.fan_memo_fills");
    std::array<graph::Vertex, kMaxTabledFanM> sorted{};
    std::uint32_t rest = mask;
    for (unsigned k = 0; k < m; ++k, rest &= rest - 1) {
      sorted[k] = bits::lowest_set(rest);
    }
    const auto fan = solver.fan(cluster_graph(m), apex, {sorted.data(), m});
    std::size_t used = 0;
    for (unsigned k = 0; k < m; ++k) {
      const graph::VertexPath& walk = fan[k];
      if (used + walk.size() - 1 > n - 1) {
        throw std::logic_error("fan table: fan walks are not disjoint");
      }
      lengths[k] = static_cast<std::uint8_t>(walk.size() - 1);
      for (std::size_t j = 1; j < walk.size(); ++j) {
        nodes[used++] = static_cast<std::uint8_t>(walk[j]);
      }
    }
    fills.inc();
  }

  // Decode in the caller's endpoint order. ends[i] is the k-th smallest
  // endpoint, where k counts the endpoints below it.
  std::array<std::uint8_t, kMaxTabledFanM> offset{};
  for (unsigned k = 1; k < m; ++k) {
    offset[k] = static_cast<std::uint8_t>(offset[k - 1] + lengths[k - 1]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const auto k = static_cast<unsigned>(
        bits::popcount(mask & ((std::uint32_t{1} << ends[i]) - 1)));
    const std::uint8_t* const begin = nodes + offset[k];
    const std::uint8_t* const end = begin + lengths[k];
    graph::VertexPath& walk = walks[i];
    walk.clear();
    if (reversed) {
      for (const std::uint8_t* p = end; p != begin;) walk.push_back(*--p);
      walk.push_back(apex);
    } else {
      walk.push_back(apex);
      walk.insert(walk.end(), begin, end);
    }
  }
  return {walks.data(), m};
}

ConstructionScratch& tls_construction_scratch() {
  thread_local ConstructionScratch scratch;
  return scratch;
}

}  // namespace hhc::core
