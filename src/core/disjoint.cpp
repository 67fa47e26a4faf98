#include "core/disjoint.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "cube/hypercube.hpp"
#include "graph/vertex_disjoint.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/bitops.hpp"

namespace hhc::core {

namespace {

// ---------------------------------------------------------------------------
// Route selection (cluster level)
//
// Selected routes live flattened in scratch.route_words with one
// (begin, end) pair per route in scratch.route_spans — no per-route vector.
// Rotations are written as dims[(r+j) % k]; detours as e, dims..., e.
// ---------------------------------------------------------------------------

std::span<const unsigned> route_at(const ConstructionScratch& scratch,
                                   std::size_t i) {
  const auto [begin, end] = scratch.route_spans[i];
  return {scratch.route_words.data() + begin,
          scratch.route_words.data() + end};
}

void push_rotation_route(ConstructionScratch& scratch, std::size_t r) {
  const std::vector<unsigned>& dims = scratch.dims;
  const std::size_t k = dims.size();
  const auto begin = static_cast<std::uint32_t>(scratch.route_words.size());
  for (std::size_t j = 0; j < k; ++j) {
    scratch.route_words.push_back(dims[(r + j) % k]);
  }
  scratch.route_spans.emplace_back(
      begin, static_cast<std::uint32_t>(scratch.route_words.size()));
}

void push_detour_route(ConstructionScratch& scratch, unsigned e) {
  const std::vector<unsigned>& dims = scratch.dims;
  const auto begin = static_cast<std::uint32_t>(scratch.route_words.size());
  scratch.route_words.push_back(e);
  scratch.route_words.insert(scratch.route_words.end(), dims.begin(),
                             dims.end());
  scratch.route_words.push_back(e);
  scratch.route_spans.emplace_back(
      begin, static_cast<std::uint32_t>(scratch.route_words.size()));
}

// Estimated realized length of the rotation at offset r: endpoint walks,
// one crossing per dimension, gateway-to-gateway walks in between. Computed
// by index arithmetic — no route is materialized.
std::size_t estimate_rotation(const std::vector<unsigned>& dims, std::size_t r,
                              std::uint64_t Ys, std::uint64_t Yt) {
  const std::size_t k = dims.size();
  const auto at = [&](std::size_t j) { return dims[(r + j) % k]; };
  std::size_t length = static_cast<std::size_t>(bits::hamming(Ys, at(0)));
  length += k;
  for (std::size_t j = 0; j + 1 < k; ++j) {
    length += static_cast<std::size_t>(bits::hamming(at(j), at(j + 1)));
  }
  length += static_cast<std::size_t>(bits::hamming(at(k - 1), Yt));
  return length;
}

// Estimated realized length of the detour e, dims..., e.
std::size_t estimate_detour(const std::vector<unsigned>& dims, unsigned e,
                            std::uint64_t Ys, std::uint64_t Yt) {
  const std::size_t k = dims.size();
  std::size_t length = static_cast<std::size_t>(bits::hamming(Ys, e));
  length += k + 2;
  length += static_cast<std::size_t>(bits::hamming(e, dims.front()));
  for (std::size_t j = 0; j + 1 < k; ++j) {
    length += static_cast<std::size_t>(bits::hamming(dims[j], dims[j + 1]));
  }
  length += static_cast<std::size_t>(bits::hamming(dims.back(), e));
  length += static_cast<std::size_t>(bits::hamming(e, Yt));
  return length;
}

// Selects the m+1 cluster routes into scratch.route_words / route_spans.
// Same selection (and tie-breaking) as the historical per-vector version.
void select_routes_different_clusters(const HhcTopology& net,
                                      ConstructionScratch& scratch, unsigned a,
                                      unsigned b, RouteSelectionPolicy policy,
                                      std::uint64_t Ys, std::uint64_t Yt) {
  const std::vector<unsigned>& dims = scratch.dims;
  const std::size_t k = dims.size();
  const std::size_t wanted = net.degree();  // m + 1

  // cluster_dimensions() = 2^m <= 32, so plain arrays and bitmasks replace
  // the historical unordered_map / unordered_set bookkeeping.
  std::array<std::int8_t, 32> index_of;
  index_of.fill(-1);
  for (std::size_t i = 0; i < k; ++i) {
    index_of[dims[i]] = static_cast<std::int8_t>(i);
  }
  std::uint32_t rotation_used = 0;
  std::uint32_t detour_used = 0;

  scratch.route_words.clear();
  scratch.route_spans.clear();

  const auto push_rotation = [&](std::size_t r) {
    rotation_used |= std::uint32_t{1} << r;
    push_rotation_route(scratch, r);
  };
  const auto push_detour = [&](unsigned e) {
    detour_used |= std::uint32_t{1} << e;
    push_detour_route(scratch, e);
  };

  // Mandatory route leaving s over its external edge (first dimension = a).
  if (index_of[a] >= 0) {
    push_rotation(static_cast<std::size_t>(index_of[a]));
  } else {
    push_detour(a);
  }

  // Mandatory route entering t over its external edge (last dimension = b).
  if (index_of[b] >= 0) {
    // The rotation starting at the cyclic successor of b ends at b.
    const std::size_t r_b = (static_cast<std::size_t>(index_of[b]) + 1) % k;
    if ((rotation_used & (std::uint32_t{1} << r_b)) == 0) push_rotation(r_b);
  } else if ((detour_used & (std::uint32_t{1} << b)) == 0) {
    push_detour(b);
  }

  if (policy == RouteSelectionPolicy::kCanonical) {
    // Fill with remaining rotations, then detours over agreeing dimensions.
    for (std::size_t r = 0; r < k && scratch.route_spans.size() < wanted;
         ++r) {
      if ((rotation_used & (std::uint32_t{1} << r)) == 0) push_rotation(r);
    }
    for (unsigned e = 0;
         e < net.cluster_dimensions() && scratch.route_spans.size() < wanted;
         ++e) {
      if (index_of[e] >= 0 || (detour_used & (std::uint32_t{1} << e)) != 0) {
        continue;
      }
      push_detour(e);
    }
  } else {
    // Balanced fill: rank every remaining candidate by its estimated
    // realized length and take the shortest. Disjointness is unaffected —
    // any subset with distinct firsts/lasts works — only lengths improve.
    auto& candidates = scratch.candidates;
    candidates.clear();
    for (std::size_t r = 0; r < k; ++r) {
      if ((rotation_used & (std::uint32_t{1} << r)) != 0) continue;
      candidates.push_back({estimate_rotation(dims, r, Ys, Yt), true, r});
    }
    for (unsigned e = 0; e < net.cluster_dimensions(); ++e) {
      if (index_of[e] >= 0 || (detour_used & (std::uint32_t{1} << e)) != 0) {
        continue;
      }
      candidates.push_back({estimate_detour(dims, e, Ys, Yt), false, e});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const ConstructionScratch::RouteCandidate& lhs,
                 const ConstructionScratch::RouteCandidate& rhs) {
                return std::tie(lhs.estimate, lhs.is_rotation, lhs.index) <
                       std::tie(rhs.estimate, rhs.is_rotation, rhs.index);
              });
    for (const auto& c : candidates) {
      if (scratch.route_spans.size() >= wanted) break;
      if (c.is_rotation) {
        push_rotation(c.index);
      } else {
        push_detour(static_cast<unsigned>(c.index));
      }
    }
  }

  if (scratch.route_spans.size() != wanted) {
    throw std::logic_error("route selection produced the wrong count");
  }
}

// ---------------------------------------------------------------------------
// Realization (into scratch.flat)
//
// Each path's nodes are appended to scratch.flat.nodes and end_path() pushes
// the offset that closes it. The PathRef spans are built only after the last
// path, since appending may reallocate the node buffer.
// ---------------------------------------------------------------------------

void end_path(FlatContainer& flat) {
  flat.offsets.push_back(static_cast<std::uint32_t>(flat.nodes.size()));
}

// Appends the intra-cluster walk from `from` to `to` (positions), skipping
// `from` itself, in ascending-dimension order — the same correction order
// as cube::Hypercube::shortest_path.
void build_walk(const HhcTopology& net, std::uint64_t cluster,
                std::uint64_t from, std::uint64_t to, std::vector<Node>& out) {
  std::uint64_t diff = from ^ to;
  std::uint64_t cur = from;
  while (diff != 0) {
    const unsigned i = bits::lowest_set(diff);
    cur = bits::flip(cur, i);
    diff = bits::clear(diff, i);
    out.push_back(net.encode(cluster, cur));
  }
}

// Appends one cluster route's path: the exit walk (positions), one
// crossing + private gateway walk per X-dimension, then the entry walk.
// The walks come in as graph::Vertex spans straight from the fan solver.
void realize_route(const HhcTopology& net, std::uint64_t start_cluster,
                   std::span<const graph::Vertex> exit_walk,
                   std::span<const unsigned> xdims,
                   std::span<const graph::Vertex> entry_walk,
                   std::vector<Node>& out) {
  std::uint64_t cluster = start_cluster;
  for (const graph::Vertex pos : exit_walk) {
    out.push_back(net.encode(cluster, pos));
  }
  for (std::size_t i = 0; i < xdims.size(); ++i) {
    const unsigned d = xdims[i];
    // Cross the external edge at gateway position d.
    cluster ^= bits::pow2(d);
    out.push_back(net.encode(cluster, d));
    if (i + 1 < xdims.size()) {
      build_walk(net, cluster, d, xdims[i + 1], out);
    }
  }
  for (std::size_t i = 1; i < entry_walk.size(); ++i) {
    out.push_back(net.encode(cluster, entry_walk[i]));
  }
}

// Same-cluster case: m disjoint paths inside the cluster (exact max flow on
// Q_m) plus one detour through the three neighboring clusters reachable via
// the endpoints' external dimensions.
void same_cluster_paths(const HhcTopology& net, Node s, Node t,
                        ConstructionScratch& scratch) {
  const unsigned m = net.m();
  const std::uint64_t X = net.cluster_of(s);
  const auto Ys = static_cast<graph::Vertex>(net.position_of(s));
  const auto Yt = static_cast<graph::Vertex>(net.position_of(t));
  const unsigned a = net.gateway_dimension(s);
  const unsigned b = net.gateway_dimension(t);

  // m internally disjoint paths inside the cluster.
  obs::TraceSpan fan_span{obs::stages::kFanSolve};
  const auto inner =
      scratch.exit_fan.max_disjoint_paths(scratch.cluster_graph(m), Ys, Yt, m);
  if (inner.size() != m) {
    throw std::logic_error("cluster connectivity below m");
  }
  std::vector<Node>& out = scratch.flat.nodes;
  for (const auto& vp : inner) {
    for (const graph::Vertex p : vp) out.push_back(net.encode(X, p));
    end_path(scratch.flat);
  }

  // External detour: cross a, walk, cross b, walk, cross a, walk, cross b.
  // Visits clusters X^2^a, X^2^a^2^b, X^2^b — never X itself — and each
  // crossing happens at the matching gateway position.
  const std::uint64_t Ea = bits::pow2(a);
  const std::uint64_t Eb = bits::pow2(b);
  out.push_back(s);
  std::uint64_t cluster = X ^ Ea;
  out.push_back(net.encode(cluster, Ys));
  build_walk(net, cluster, Ys, Yt, out);
  cluster ^= Eb;
  out.push_back(net.encode(cluster, Yt));
  build_walk(net, cluster, Yt, Ys, out);
  cluster ^= Ea;
  out.push_back(net.encode(cluster, Ys));
  build_walk(net, cluster, Ys, Yt, out);
  cluster ^= Eb;
  out.push_back(net.encode(cluster, Yt));  // == t
  end_path(scratch.flat);
}

void different_cluster_paths(const HhcTopology& net, Node s, Node t,
                             ConstructionOptions options,
                             ConstructionScratch& scratch) {
  const std::uint64_t Xs = net.cluster_of(s);
  const auto Ys = static_cast<graph::Vertex>(net.position_of(s));
  const auto Yt = static_cast<graph::Vertex>(net.position_of(t));
  const unsigned a = net.gateway_dimension(s);
  const unsigned b = net.gateway_dimension(t);

  differing_x_dimensions_into(net, s, t, options.ordering, scratch.dims);
  select_routes_different_clusters(net, scratch, a, b, options.selection,
                                   net.position_of(s), net.position_of(t));
  const std::size_t route_count = scratch.route_spans.size();

  // Exit fan inside cluster Xs: one disjoint walk per route that leaves s
  // through an internal edge (first dimension != a); entry fan likewise
  // into t. Both are read through the scratch's fan table, so a fan seen
  // before on this thread costs a probe, not a max-flow solve.
  scratch.exit_targets.clear();
  scratch.entry_sources.clear();
  for (std::size_t i = 0; i < route_count; ++i) {
    const auto route = route_at(scratch, i);
    if (route.front() != a) {
      scratch.exit_targets.push_back(static_cast<graph::Vertex>(route.front()));
    }
    if (route.back() != b) {
      scratch.entry_sources.push_back(static_cast<graph::Vertex>(route.back()));
    }
  }
  std::span<const graph::VertexPath> exit_fans;
  std::span<const graph::VertexPath> entry_fans;
  {
    obs::TraceSpan fan_span{obs::stages::kFanSolve};
    exit_fans = scratch.exit_fans(net.m(), Ys, scratch.exit_targets);
    entry_fans = scratch.entry_fans(net.m(), scratch.entry_sources, Yt);
  }

  std::size_t exit_index = 0;
  std::size_t entry_index = 0;
  for (std::size_t i = 0; i < route_count; ++i) {
    const auto route = route_at(scratch, i);
    const graph::Vertex trivial_exit[1] = {Ys};
    const graph::Vertex trivial_entry[1] = {Yt};
    const std::span<const graph::Vertex> exit_walk =
        route.front() == a ? std::span<const graph::Vertex>{trivial_exit}
                           : std::span<const graph::Vertex>{
                                 exit_fans[exit_index++]};
    const std::span<const graph::Vertex> entry_walk =
        route.back() == b ? std::span<const graph::Vertex>{trivial_entry}
                          : std::span<const graph::Vertex>{
                                entry_fans[entry_index++]};
    realize_route(net, Xs, exit_walk, route, entry_walk, scratch.flat.nodes);
    end_path(scratch.flat);
  }
}

}  // namespace

std::size_t DisjointPathSet::max_length() const noexcept {
  std::size_t best = 0;
  for (const auto& p : paths) best = std::max(best, p.size() - 1);
  return best;
}

std::size_t DisjointPathSet::min_length() const noexcept {
  std::size_t best = static_cast<std::size_t>(-1);
  for (const auto& p : paths) best = std::min(best, p.size() - 1);
  return paths.empty() ? 0 : best;
}

double DisjointPathSet::average_length() const noexcept {
  if (paths.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& p : paths) total += p.size() - 1;
  return static_cast<double>(total) / static_cast<double>(paths.size());
}

std::size_t DisjointPathSetRef::max_length() const noexcept {
  std::size_t best = 0;
  for (const PathRef p : paths) best = std::max(best, p.size() - 1);
  return best;
}

std::size_t DisjointPathSetRef::min_length() const noexcept {
  std::size_t best = static_cast<std::size_t>(-1);
  for (const PathRef p : paths) best = std::min(best, p.size() - 1);
  return paths.empty() ? 0 : best;
}

double DisjointPathSetRef::average_length() const noexcept {
  if (paths.empty()) return 0.0;
  std::size_t total = 0;
  for (const PathRef p : paths) total += p.size() - 1;
  return static_cast<double>(total) / static_cast<double>(paths.size());
}

DisjointPathSet DisjointPathSetRef::materialize() const {
  DisjointPathSet set;
  set.paths.reserve(paths.size());
  for (const PathRef p : paths) set.paths.emplace_back(p.begin(), p.end());
  return set;
}

std::vector<ClusterRoute> select_cluster_routes(const HhcTopology& net, Node s,
                                                Node t) {
  if (!net.contains(s) || !net.contains(t)) {
    throw std::invalid_argument("select_cluster_routes: node out of range");
  }
  if (net.cluster_of(s) == net.cluster_of(t)) return {};
  ConstructionScratch& scratch = tls_construction_scratch();
  differing_x_dimensions_into(net, s, t, DimensionOrdering::kGrayCycle,
                              scratch.dims);
  select_routes_different_clusters(
      net, scratch, net.gateway_dimension(s), net.gateway_dimension(t),
      RouteSelectionPolicy::kCanonical, net.position_of(s),
      net.position_of(t));
  std::vector<ClusterRoute> routes;
  routes.reserve(scratch.route_spans.size());
  for (std::size_t i = 0; i < scratch.route_spans.size(); ++i) {
    const auto route = route_at(scratch, i);
    routes.emplace_back(route.begin(), route.end());
  }
  return routes;
}

DisjointPathSetRef node_disjoint_paths(const HhcTopology& net, Node s, Node t,
                                       ConstructionOptions options,
                                       ConstructionScratch& scratch) {
  if (!net.contains(s) || !net.contains(t)) {
    throw std::invalid_argument("node_disjoint_paths: node out of range");
  }
  if (s == t) throw std::invalid_argument("node_disjoint_paths: s == t");
  static obs::Counter& constructions =
      obs::MetricRegistry::global().counter("construct.calls");
  FlatContainer& flat = scratch.flat;
  flat.nodes.clear();
  flat.offsets.assign(1, 0);
  if (net.cluster_of(s) == net.cluster_of(t)) {
    same_cluster_paths(net, s, t, scratch);
  } else {
    different_cluster_paths(net, s, t, options, scratch);
  }
  scratch.refs.clear();
  for (std::size_t i = 0; i + 1 < flat.offsets.size(); ++i) {
    scratch.refs.emplace_back(flat.nodes.data() + flat.offsets[i],
                              flat.nodes.data() + flat.offsets[i + 1]);
  }
  constructions.inc();
  return DisjointPathSetRef{scratch.refs};
}

DisjointPathSet node_disjoint_paths(const HhcTopology& net, Node s, Node t,
                                    ConstructionOptions options) {
  return node_disjoint_paths(net, s, t, options, tls_construction_scratch())
      .materialize();
}

bool verify_disjoint_path_set(const HhcTopology& net,
                              const DisjointPathSet& set, Node s, Node t,
                              std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (set.paths.size() != net.degree()) {
    return fail("expected " + std::to_string(net.degree()) + " paths, got " +
                std::to_string(set.paths.size()));
  }
  std::unordered_map<Node, std::size_t> owner;
  for (std::size_t i = 0; i < set.paths.size(); ++i) {
    const Path& p = set.paths[i];
    if (!is_valid_path(net, p, s, t)) {
      return fail("path " + std::to_string(i) + " is not a simple s-t path");
    }
    for (const Node v : p) {
      if (v == s || v == t) continue;
      const auto [it, inserted] = owner.emplace(v, i);
      if (!inserted) {
        return fail("node " + std::to_string(v) + " shared by paths " +
                    std::to_string(it->second) + " and " + std::to_string(i));
      }
    }
  }
  if (why != nullptr) why->clear();
  return true;
}

}  // namespace hhc::core
