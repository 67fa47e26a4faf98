#include "core/routing.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "cube/gray.hpp"
#include "cube/hypercube.hpp"

namespace hhc::core {

namespace {

// Appends the intra-cluster walk from `from` to `to` (positions), skipping
// the first position (assumed already emitted), as nodes of `cluster`.
void append_walk(const HhcTopology& net, const cube::Hypercube& qm,
                 std::uint64_t cluster, std::uint64_t from, std::uint64_t to,
                 Path& out) {
  const auto walk = qm.shortest_path(from, to);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    out.push_back(net.encode(cluster, walk[i]));
  }
}

}  // namespace

Path realize_cluster_route(const HhcTopology& net, std::uint64_t start_cluster,
                           std::span<const std::uint64_t> exit_walk,
                           std::span<const unsigned> xdims,
                           std::span<const std::uint64_t> entry_walk) {
  if (xdims.empty()) {
    throw std::invalid_argument("realize_cluster_route: empty route");
  }
  if (exit_walk.empty() || entry_walk.empty()) {
    throw std::invalid_argument("realize_cluster_route: empty end walk");
  }
  if (exit_walk.back() != xdims.front()) {
    throw std::invalid_argument(
        "realize_cluster_route: exit walk does not reach the first gateway");
  }
  if (entry_walk.front() != xdims.back()) {
    throw std::invalid_argument(
        "realize_cluster_route: entry walk does not start at the last gateway");
  }

  const cube::Hypercube qm{net.m()};
  Path path;
  std::uint64_t cluster = start_cluster;

  // Walk inside the start cluster to the first gateway.
  for (const std::uint64_t pos : exit_walk) path.push_back(net.encode(cluster, pos));

  for (std::size_t i = 0; i < xdims.size(); ++i) {
    const unsigned d = xdims[i];
    if (d >= net.cluster_dimensions()) {
      throw std::invalid_argument("realize_cluster_route: bad X-dimension");
    }
    // Cross the external edge at gateway position d.
    cluster ^= bits::pow2(d);
    path.push_back(net.encode(cluster, d));
    if (i + 1 < xdims.size()) {
      // Walk to the next gateway inside this intermediate cluster.
      append_walk(net, qm, cluster, d, xdims[i + 1], path);
    }
  }

  // Walk inside the final cluster to the destination position.
  for (std::size_t i = 1; i < entry_walk.size(); ++i) {
    path.push_back(net.encode(cluster, entry_walk[i]));
  }
  return path;
}

void differing_x_dimensions_into(const HhcTopology& net, Node s, Node t,
                                 DimensionOrdering ordering,
                                 std::vector<unsigned>& out) {
  out.clear();
  const std::uint64_t xdiff = net.cluster_of(s) ^ net.cluster_of(t);
  for (unsigned d = 0; d < net.cluster_dimensions(); ++d) {
    if (bits::test(xdiff, d)) out.push_back(d);
  }
  if (ordering == DimensionOrdering::kGrayCycle) {
    // Same comparator as cube::order_along_gray_cycle.
    std::sort(out.begin(), out.end(), [](unsigned a, unsigned b) {
      return cube::gray_rank(a) < cube::gray_rank(b);
    });
  }  // kAscending: the scan above already produced ascending order.
}

std::vector<unsigned> differing_x_dimensions(const HhcTopology& net, Node s,
                                             Node t,
                                             DimensionOrdering ordering) {
  std::vector<unsigned> result;
  differing_x_dimensions_into(net, s, t, ordering, result);
  return result;
}

namespace {

// Gray-ordered differing dimensions on the stack (cluster_dimensions() is
// 2^m <= 32), so the rotation search below never touches the heap — this is
// the hot heuristic of the local-knowledge router.
struct GrayDims {
  std::array<unsigned, 32> dims{};
  std::size_t k = 0;
};

GrayDims gray_dims_of(const HhcTopology& net, Node s, Node t) {
  GrayDims gd;
  const std::uint64_t xdiff = net.cluster_of(s) ^ net.cluster_of(t);
  for (unsigned d = 0; d < net.cluster_dimensions(); ++d) {
    if (bits::test(xdiff, d)) gd.dims[gd.k++] = d;
  }
  std::sort(gd.dims.begin(), gd.dims.begin() + static_cast<std::ptrdiff_t>(gd.k),
            [](unsigned a, unsigned b) {
              return cube::gray_rank(a) < cube::gray_rank(b);
            });
  return gd;
}

// Element j of rotation (r, dir) of the Gray cycle, by index arithmetic.
unsigned rotation_at(const GrayDims& gd, std::size_t r, int dir,
                     std::size_t j) {
  const std::size_t idx =
      dir == 0 ? (r + j) % gd.k : (r + gd.k - j) % gd.k;
  return gd.dims[idx];
}

// Realized length of rotation (r, dir): endpoint walks + one crossing per
// dimension + gateway-to-gateway walks.
std::size_t rotation_cost(const GrayDims& gd, std::size_t r, int dir,
                          std::uint64_t Ys, std::uint64_t Yt) {
  std::size_t cost =
      static_cast<std::size_t>(bits::hamming(Ys, rotation_at(gd, r, dir, 0)));
  cost += gd.k;
  for (std::size_t j = 0; j + 1 < gd.k; ++j) {
    cost += static_cast<std::size_t>(
        bits::hamming(rotation_at(gd, r, dir, j), rotation_at(gd, r, dir, j + 1)));
  }
  cost += static_cast<std::size_t>(
      bits::hamming(rotation_at(gd, r, dir, gd.k - 1), Yt));
  return cost;
}

// The cheapest rotation (either direction) of the Gray-ordered differing
// dimensions. Same scan order (dir major, offset minor, strict improvement)
// as the historical vector-based search, so ties resolve identically.
struct BestRotation {
  std::size_t r = 0;
  int dir = 0;
  std::size_t cost = std::numeric_limits<std::size_t>::max();
};

BestRotation best_cluster_rotation(const GrayDims& gd, std::uint64_t Ys,
                                   std::uint64_t Yt) {
  BestRotation best;
  for (int dir = 0; dir < 2; ++dir) {
    for (std::size_t r = 0; r < gd.k; ++r) {
      const std::size_t cost = rotation_cost(gd, r, dir, Ys, Yt);
      if (cost < best.cost) {
        best.cost = cost;
        best.r = r;
        best.dir = dir;
      }
    }
  }
  return best;
}

}  // namespace

Path route(const HhcTopology& net, Node s, Node t) {
  if (!net.contains(s) || !net.contains(t)) {
    throw std::invalid_argument("route: node out of range");
  }
  if (s == t) return {s};

  const cube::Hypercube qm{net.m()};
  const std::uint64_t Ys = net.position_of(s);
  const std::uint64_t Yt = net.position_of(t);

  if (net.cluster_of(s) == net.cluster_of(t)) {
    Path path;
    path.push_back(s);
    append_walk(net, qm, net.cluster_of(s), Ys, Yt, path);
    return path;
  }

  const GrayDims gd = gray_dims_of(net, s, t);
  const BestRotation best = best_cluster_rotation(gd, Ys, Yt);
  std::vector<unsigned> seq;
  seq.reserve(gd.k);
  for (std::size_t j = 0; j < gd.k; ++j) {
    seq.push_back(rotation_at(gd, best.r, best.dir, j));
  }
  const auto exit_walk = qm.shortest_path(Ys, seq.front());
  const auto entry_walk = qm.shortest_path(seq.back(), Yt);
  return realize_cluster_route(net, net.cluster_of(s), exit_walk, seq,
                               entry_walk);
}

std::size_t route_length(const HhcTopology& net, Node s, Node t) {
  if (!net.contains(s) || !net.contains(t)) {
    throw std::invalid_argument("route_length: node out of range");
  }
  if (s == t) return 0;
  if (net.cluster_of(s) == net.cluster_of(t)) {
    return static_cast<std::size_t>(
        bits::hamming(net.position_of(s), net.position_of(t)));
  }
  const GrayDims gd = gray_dims_of(net, s, t);
  return best_cluster_rotation(gd, net.position_of(s), net.position_of(t))
      .cost;
}

bool is_valid_path(const HhcTopology& net, const Path& path, Node s, Node t) {
  if (path.empty() || path.front() != s || path.back() != t) return false;
  std::unordered_set<Node> seen;
  for (const Node v : path) {
    if (!net.contains(v)) return false;
    if (!seen.insert(v).second) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!net.is_edge(path[i], path[i + 1])) return false;
  }
  return true;
}

}  // namespace hhc::core
