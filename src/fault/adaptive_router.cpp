#include "fault/adaptive_router.hpp"

#include <array>
#include <bit>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/disjoint.hpp"
#include "core/orbit_table.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/bitops.hpp"

namespace hhc::fault {

using core::ActiveFaults;
using core::FaultModel;
using core::Node;
using core::Path;

namespace {

// HhcTopology::external_neighbor without its range check: flips bit
// dec(Y) of X, i.e. address bit m + Y.
Node external_neighbor(Node v, unsigned m) noexcept {
  return bits::flip(v, m + static_cast<unsigned>(v & bits::low_mask(m)));
}

// The neighbor of v across dimension `dim` (dim = m: the external edge).
Node neighbor(Node v, unsigned dim, unsigned m) noexcept {
  return dim < m ? bits::flip(v, dim) : external_neighbor(v, m);
}

// One byte per node: bit d is set when the dimension-d edge (d = m the
// external one) is usable in a snapshot, i.e. the link is healthy and both
// endpoints are alive. Keyed on the snapshot's identity (model version and
// validity interval) and on m. A re-projection at the same m resets only
// the bytes the previous one cleared, so it costs O(facts) and, once
// `touched_` has grown, allocates nothing. Facts naming nodes outside the
// topology, or links that are not edges of it, block nothing: skipped.
class UsableEdges {
 public:
  const std::uint8_t* project(const ActiveFaults& active,
                              const core::HhcTopology& net) {
    const unsigned m = net.m();
    if (active.version() == version_ && active.valid_from() == from_ &&
        active.valid_until() == until_ && m == m_) {
      return usable_.data();
    }
    const auto n = static_cast<std::size_t>(net.node_count());
    const auto all = static_cast<std::uint8_t>(bits::low_mask(m + 1));
    if (m != m_) {
      usable_.assign(n, all);  // touched_ may name nodes beyond n
    } else {
      for (const Node v : touched_) usable_[v] = all;
    }
    touched_.clear();
    for (const ActiveFaults::Fact& fact : active.facts()) {
      if (fact.b >= n) continue;  // a <= b: both ends are then in range
      // A node fact cuts every edge at the node, a link fact its own.
      unsigned first = 0;
      unsigned last = m;
      if (fact.a != fact.b) {
        const Node flip = fact.a ^ fact.b;
        first = last = flip <= bits::low_mask(m) && std::has_single_bit(flip)
                           ? static_cast<unsigned>(std::countr_zero(flip))
                           : m;
        if (neighbor(fact.a, first, m) != fact.b) continue;  // not an edge
      }
      for (unsigned dim = first; dim <= last; ++dim) {
        for (const Node v : {fact.a, neighbor(fact.a, dim, m)}) {
          usable_[v] = static_cast<std::uint8_t>(usable_[v] & ~(1U << dim));
          touched_.push_back(v);
        }
      }
    }
    version_ = active.version();
    from_ = active.valid_from();
    until_ = active.valid_until();
    m_ = m;
    return usable_.data();
  }

 private:
  std::vector<std::uint8_t> usable_;
  std::vector<Node> touched_;  // bytes the last projection cleared
  std::uint64_t version_ = 0;  // no model carries version 0
  std::uint64_t from_ = 0;
  std::uint64_t until_ = 0;
  unsigned m_ = 0;  // no topology has m = 0
};

// Per-thread survivor-BFS state, reused across sweeps so that a sweep
// whose working set fits what earlier sweeps grew allocates nothing.
//
// `marks` holds one {stamp, bits} per node of the largest topology swept
// so far. A node is reached in the current sweep only while its stamp
// equals `epoch`, so starting a sweep is one increment rather than a
// clear; when the stamp wraps, every stamp is cleared once. The stamp is
// 16 bits (a mark is 4 bytes either way) so that a test can cross the wrap
// in a fraction of a second. Each side's FIFO has a slot per node too, but
// is never initialized: a slot is written before it is read, so pages a
// sweep does not reach are never touched.
struct SweepScratch {
  // A reached node's bits: kFromT is set when the search from t reached
  // it, and the low bits are kRoot for s and t themselves, else 0..m
  // naming the dimension of the edge from its BFS parent (m = the
  // external edge).
  static constexpr std::uint8_t kFromT = 0x40;
  static constexpr std::uint8_t kRoot = 0x3F;

  struct Mark {
    std::uint16_t stamp = 0;
    std::uint8_t bits = 0;
  };

  /// Forgets the previous sweep and makes room for `node_count` nodes.
  void begin(std::uint64_t node_count) {
    if (capacity < node_count) {
      const auto n = static_cast<std::size_t>(node_count);
      marks.resize(n);
      for (auto& fifo : fifos) fifo = std::make_unique_for_overwrite<Node[]>(n);
      capacity = node_count;
    }
    if (++epoch == 0) {
      for (Mark& mark : marks) mark.stamp = 0;
      epoch = 1;
    }
  }

  /// The path s -> x -> y -> t over the usable edge {x, y}, where the
  /// search from s reached x after `x_hops` edges and the search from t
  /// reached y after `y_hops`. Both halves are read back through the
  /// parent marks; allocates exactly the returned path.
  [[nodiscard]] Path join(unsigned m, Node x, std::size_t x_hops, Node y,
                          std::size_t y_hops) const {
    const auto parent = [&](Node v) {
      return neighbor(v, marks[v].bits & kRoot, m);
    };
    Path path(x_hops + y_hops + 2);
    path[x_hops] = x;
    for (std::size_t i = x_hops; i > 0; --i) path[i - 1] = parent(path[i]);
    path[x_hops + 1] = y;
    for (std::size_t i = x_hops + 1; i + 1 < path.size(); ++i) {
      path[i + 1] = parent(path[i]);
    }
    return path;
  }

  std::vector<Mark> marks;
  std::array<std::unique_ptr<Node[]>, 2> fifos;  // from s, from t
  std::uint64_t capacity = 0;  // nodes `marks` and each FIFO hold
  std::uint16_t epoch = 0;
};

// Everything a route keeps per thread, reused across calls.
struct RouterScratch {
  // The faults a query reads. Re-resolved only when the query's model or
  // time falls outside what it covers, so a run of queries against one
  // model inside one fault interval resolves once.
  ActiveFaults active;
  // The snapshot's usable-edge bytes, projected on the first sweep that
  // reads them after a re-resolve.
  UsableEdges usable;
  // The scanned container, flattened as in core::FlatContainer.
  std::vector<Node> nodes;
  std::vector<std::uint32_t> offsets;
  SweepScratch sweep;
};

RouterScratch& tls_router_scratch() {
  thread_local RouterScratch scratch;
  return scratch;
}

// Every hop of `path` traversable in the snapshot. route() has already
// found both endpoints healthy, so a hop checks only its link and, unless
// it enters t, the node it enters.
bool path_survives(std::span<const Node> path, const ActiveFaults& active) {
  for (std::size_t j = 1; j < path.size(); ++j) {
    if (j + 1 < path.size() && active.node_faulty(path[j])) return false;
    if (active.link_faulty(path[j - 1], path[j])) return false;
  }
  return true;
}

// Scans the flattened container for surviving paths; keeps the first
// strictly shortest survivor (same selection as the historical Path* scan)
// and copies only that one.
void select_survivor(const RouterScratch& scratch, const ActiveFaults& active,
                     query::RouteResult& result) {
  const std::vector<std::uint32_t>& offsets = scratch.offsets;
  std::span<const Node> best;
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    const std::span<const Node> path{scratch.nodes.data() + offsets[i],
                                     offsets[i + 1] - offsets[i]};
    if (!path_survives(path, active)) {
      ++result.container_paths_blocked;
      continue;
    }
    if (best.empty() || path.size() < best.size()) best = path;
  }
  if (best.empty()) return;
  result.paths.emplace_back(best.begin(), best.end());
  result.level = query::DegradationLevel::kGuaranteed;
}

// Level-synchronous bidirectional BFS over the usable edges; empty when t
// is unreachable. One search grows from s and one from t, each through its
// own FIFO. A step expands one whole level of whichever side's current
// level holds fewer nodes (s on a tie), each node's usable edges in
// ascending dimension, which is HhcTopology::neighbors order. The first
// usable edge from the expanding side to a node the other side has reached
// closes a shortest path (DESIGN.md §6 gives the argument). A side whose
// level comes up empty has exhausted its component, so an isolated t ends
// the search after t's own expansion. No fault fact is read here: `usable`
// folds each edge's link and both endpoints into one bit.
//
// Cooperatively cancellable: every util::kStopCheckStride expansions,
// counted across both sides, the query's deadline/token are polled, and an
// expired search sets `timed_out` and returns empty — a hostile fault set
// can make this sweep visit a whole survivor component, which is exactly
// the stage a deadline must be able to interrupt.
Path survivor_bfs(const core::HhcTopology& net, Node s, Node t,
                  const std::uint8_t* usable, SweepScratch& scratch,
                  const query::PairQuery& query, bool& timed_out) {
  using Mark = SweepScratch::Mark;
  scratch.begin(net.node_count());
  const unsigned m = net.m();
  const std::uint16_t epoch = scratch.epoch;
  Mark* const marks = scratch.marks.data();
  marks[s] = {epoch, SweepScratch::kRoot};
  marks[t] = {epoch, SweepScratch::kFromT | SweepScratch::kRoot};
  scratch.fifos[0][0] = s;
  scratch.fifos[1][0] = t;
  // Per side (0 = from s, 1 = from t): its current level is
  // fifos[side][head[side], end), at depth[side] hops from its root, and
  // the next level grows to tail[side]. A side holds at most N - 1 nodes
  // (the other side holds its root), so its FIFO never overflows.
  std::array<std::size_t, 2> head{0, 0};
  std::array<std::size_t, 2> tail{1, 1};
  std::array<std::size_t, 2> depth{0, 0};
  std::size_t expansions = 0;
  for (;;) {
    const std::size_t side = tail[1] - head[1] < tail[0] - head[0] ? 1 : 0;
    Node* const fifo = scratch.fifos[side].get();
    const std::uint8_t own = side == 0 ? 0 : SweepScratch::kFromT;
    const std::size_t end = tail[side];
    for (; head[side] < end; ++head[side]) {
      if (++expansions % util::kStopCheckStride == 0 &&
          util::should_stop(query.deadline, query.cancel)) {
        timed_out = true;
        return {};
      }
      const Node u = fifo[head[side]];
      const unsigned edges = usable[u];
      // Every dimension in turn, the usable bit folded into branch-free
      // updates: which neighbors a sweep takes is data-dependent, and a
      // mispredicted branch per neighbor costs more than the visit.
      for (unsigned dim = 0; dim <= m; ++dim) {
        const Node v = neighbor(u, dim, m);
        Mark& mark = marks[v];
        const bool open = ((edges >> dim) & 1U) != 0;
        const bool seen = mark.stamp == epoch;
        if (open && seen && (mark.bits & SweepScratch::kFromT) != own) {
          return side == 0 ? scratch.join(m, u, depth[0], v, depth[1])
                           : scratch.join(m, v, depth[0], u, depth[1]);
        }
        const bool take = open && !seen;
        const Mark reached{epoch, static_cast<std::uint8_t>(own | dim)};
        mark = take ? reached : mark;
        fifo[tail[side]] = v;
        tail[side] += take ? 1 : 0;
      }
    }
    if (tail[side] == end) return {};  // this side's component is exhausted
    ++depth[side];
  }
}

}  // namespace

query::RouteResult AdaptiveRouter::route(const query::PairQuery& query,
                                         const RouteLimits& limits) const {
  static const FaultModel kNoFaults;
  const FaultModel& faults = query.faults != nullptr ? *query.faults : kNoFaults;
  const Node s = query.s;
  const Node t = query.t;

  RouterScratch& scratch = tls_router_scratch();
  ActiveFaults& active = scratch.active;
  if (!active.covers(faults.version(), query.time)) {
    faults.resolve(query.time, active);
  }

  query::RouteResult result;
  if (active.node_faulty(s) || active.node_faulty(t)) {
    return result;  // a dead endpoint is disconnection, not an error
  }
  if (s == t) {
    result.paths = {Path{s}};
    result.level = query::DegradationLevel::kGuaranteed;
    return result;
  }

  // Stage boundary: an already-expired query must not pay for a container
  // lookup (which may run the whole construction on a cache miss).
  if (util::should_stop(query.deadline, query.cancel)) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }

  {
    static obs::Histogram& scan_hist =
        obs::stage_histogram(obs::stages::kContainerScan);
    obs::TraceSpan span{obs::stages::kContainerScan, &scan_hist};
    if (cache_ != nullptr) {
      cache_->flatten(s, t, query.options, scratch.nodes, scratch.offsets,
                      &result.cache_hit);
    } else {
      core::flatten(core::node_disjoint_paths(net_, s, t, query.options,
                                              core::tls_construction_scratch()),
                    scratch.nodes, scratch.offsets);
    }
    select_survivor(scratch, active, result);
  }
  if (!result.paths.empty()) return result;

  // The scan found no survivor, and no sweep runs: either the service told
  // us the sweep is too expensive right now (degraded admission), or the
  // topology is beyond the node-indexed sweep state (m > 4, 2^37 nodes).
  // The kDisconnected verdict is best-effort, so the outcome says kShed,
  // not kOk.
  if (limits.skip_fallback || !core::OrbitTable::covers(net_.m())) {
    result.outcome = query::RouteOutcome::kShed;
    return result;
  }
  // Stage boundary before committing a worker to the survivor sweep.
  if (util::should_stop(query.deadline, query.cancel)) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }

  result.used_fallback = true;
  static obs::Histogram& fallback_hist =
      obs::stage_histogram(obs::stages::kBfsFallback);
  obs::TraceSpan span{obs::stages::kBfsFallback, &fallback_hist};
  bool timed_out = false;
  Path detour =
      survivor_bfs(net_, s, t, scratch.usable.project(active, net_),
                   scratch.sweep, query, timed_out);
  if (timed_out) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }
  result.level = detour.empty() ? query::DegradationLevel::kDisconnected
                                : query::DegradationLevel::kBestEffort;
  if (!detour.empty()) result.paths.push_back(std::move(detour));
  return result;
}

}  // namespace hhc::fault
