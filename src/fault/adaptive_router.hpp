// Adaptive fault-tolerant routing with graceful degradation.
//
// The m+1 node-disjoint container guarantees delivery under any <= m node
// faults — but says nothing once |F| > m, or when *links* fail (a link
// fault can block a container path without consuming a node fault, so even
// few link faults may block all m+1 paths). This router degrades
// gracefully in those regimes instead of returning an empty path:
//
//   1. try the disjoint container (the paper's guarantee)    -> kGuaranteed
//   2. fall back to a shortest survivor path                 -> kBestEffort
//   3. only when s and t are genuinely disconnected          -> kDisconnected
//
// so a caller always learns *why* there is no path, never just an empty
// vector. A caller that wants the container's verdict alone (did any of
// the m+1 paths survive, and how many were blocked?) passes
// RouteLimits{.skip_fallback = true}: step 2 never runs.
//
// The survivor search walks the implicit topology (no explicit graph
// build) and runs only at m <= 4 (core::OrbitTable::kMaxM): its state is
// indexed by node, and m = 5 has 2^37 nodes. Above that, a fully cut
// container answers as under skip_fallback: outcome kShed, level
// kDisconnected, no search. The search is A* from one endpoint toward the
// other, its h the exact fault-free HHC distance (detail::distance below),
// read from a table of one byte per (translated cluster difference,
// position) that each m builds on its first search. Beside each cell the
// table keeps a mask of the dimensions that fall toward the goal
// (detail::falling_dimensions).
//
// HHC is vertex-transitive, so a shortest detour is as short searched from
// either end, and the search starts from the more damaged one: the
// endpoint with fewer usable edges falling toward the other within two
// hops, ties to s. When that is t the detour is reversed, and the result's
// search_from_t says so. An obstacle near A*'s goal costs it the whole
// f-contour before f rises; the same obstacle near its start is met at
// once. On a fault_churn-shaped schedule the rule cuts the p99 of
// expansions per fallback from 86 to 55 (EXPERIMENTS.md A5e).
//
// HHC is bipartite, so h changes by exactly 1 across every edge: two LIFO
// stacks, the open nodes at the least f and at f + 2, serve as the
// priority queue, and the first time the goal is generated closes a
// shortest detour. When f rises, the f + 2 stack is counting-sorted by h
// into the other, so among the nodes at f the search pops one of least h
// (the deepest) first.
// A plain BFS from the goal (the guard) runs beside it: one expansion
// before A* starts, then, once A* has made 32 expansions, one per four
// more; when it exhausts the goal's component without reaching the start,
// the answer is kDisconnected. An isolated endpoint therefore costs at
// most one expansion of each, not a sweep of the other's component, and a
// disconnected pair at most 32 + 4 |C| A* expansions, C being the goal's
// component. The result reports both expansion counts.
//
// route() reads the faults once, through FaultModel::snapshot: the
// thread's core::ActiveFaults snapshot of the facts active at query.time
// (an exact open-addressing set behind a one-bit-per-bucket filter), the
// same one the model's point queries read. It is re-resolved only when the
// query's (model version, time) leaves the interval between fault window
// boundaries it was resolved in, at O(log windows + active facts): once per
// thread per epoch for a caller routing against one model, on every call
// for one building a fresh model per route, or alternating two models on
// one thread. The hashed set serves the endpoint checks and the scan at
// m = 5.
//
// At m <= 4 the scan and the search read one projection of the snapshot:
// one byte per node, bit d set when the dimension-d edge (d = m the
// external one) is usable (link healthy, both endpoints alive), projected
// by the first scan or search after a re-resolve. A re-projection at the
// same m resets only the bytes the previous one cleared.
//
// The container is the one the router's core::ContainerCache serves, the
// same one query::PathService answers with. At m <= 4 the scan walks the
// pair's orbit record in place (ContainerCache::scan): a hop tests one bit
// of the byte of the node it leaves, a path stops at its first blocked
// hop, and only the delivered path (the first strictly shortest survivor)
// is decoded. At m = 5 it walks the lookup() handle in place: each hop
// checks its link and the interior node it enters in the hashed set, and
// only the delivered path is copied out.
//
// The search expands u by walking the set bits of its byte in ascending
// order, which is HhcTopology::neighbors order, and pops least h
// first, then last pushed, so a query's detour is the same on every call
// and every thread, and as short as the one a plain BFS finds, though it
// may take different nodes. Before the walk it masks out the edge u was
// reached by, which leads back to a closed node; the guard does the same
// with the dimension its FIFO slot carries above the node id. An expansion
// reads one table byte, u's falling-dimension mask: a neighbor's h is
// h(u) - 1 where its bit is set and h(u) + 1 where not, so no neighbor's
// cell is loaded. The mask's cell is found without translating ΔX again:
// u's mark carries its row (translated ΔX), written when u is first
// generated, and an external hop flips one bit of it. The f + 2 stack is
// sorted by the h in the marks. Its marks are an epoch-stamped array of
// one 8-byte record per node (stamp, guard stamp, h, parent dimension and
// state, row), the two stacks and the guard's FIFO a 32-bit slot per node
// each, never initialized. All of it is per-thread scratch reused across
// calls: once grown, a route allocates only the path it returns. At m = 4
// a thread keeps the 1 MiB of usable bytes even if it only scans; one that
// searches also keeps 8 MiB of marks and three 4 MiB arrays of slots, of
// which a search that finds t early or ends at a small component touches
// few pages. The tables are shared by every thread and never freed: 4 KiB
// at m = 3, 2 MiB at m = 4 (distances and masks), built once per process.
//
// Results use the query vocabulary (query::PairQuery -> query::RouteResult).
#pragma once

#include <cassert>
#include <cstdint>

#include "core/container_cache.hpp"
#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "query/types.hpp"

namespace hhc::fault {

namespace detail {

/// The number of hops from v to t in fault-free HHC(m), m <= 4: |ΔX| for
/// the external hops, ΔX = X_v ^ X_t, plus the shortest Q_m walk from Y_v
/// through every position in ΔX to Y_t. The survivor search's h, read from
/// the same table; the table is built on the first call at m.
[[nodiscard]] unsigned distance(unsigned m, core::Node v, core::Node t);

/// The dimensions along which v's neighbor is one hop nearer to t in
/// fault-free HHC(m), m <= 4: bit d for the dimension-d neighbor, bit m for
/// the external one. The survivor search reads it once per expansion, from
/// the table distance() reads.
[[nodiscard]] unsigned falling_dimensions(unsigned m, core::Node v,
                                          core::Node t);

}  // namespace detail

class AdaptiveRouter {
 public:
  /// Routes on cache.net(); `cache` (not owned) serves every container
  /// scan and must outlive the router.
  explicit AdaptiveRouter(core::ContainerCache& cache) : cache_{cache} {}
  /// The same router, in the spelling perfbench's ladder still uses:
  /// `cache` must be non-null and built on `net`.
  AdaptiveRouter([[maybe_unused]] const core::HhcTopology& net,
                 core::ContainerCache* cache)
      : AdaptiveRouter{*cache} {
    assert(&cache->net() == &net);
  }

  /// The container-only verdict, for direct callers (the F2 and F7
  /// benches, `hhc_tool faults`): skip_fallback never runs the survivor
  /// search and reports outcome kShed when the container scan alone could
  /// not deliver — that kDisconnected is NOT authoritative. PathService
  /// always routes with the defaults.
  struct RouteLimits {
    bool skip_fallback = false;
  };

  /// Routes query.s -> query.t around the faults in query.faults (treated
  /// as fault-free when null) at instant query.time. Never throws on
  /// blocked or faulty-endpoint inputs — a faulty endpoint is reported as
  /// kDisconnected, which is what it means operationally. The result holds
  /// at most one path: the delivered route.
  ///
  /// Cooperative cancellation: query.deadline / query.cancel are checked at
  /// each stage boundary and every util::kStopCheckStride expansions inside
  /// the survivor search; an expired query returns outcome kTimedOut with
  /// whatever container-scan detail was already gathered.
  [[nodiscard]] query::RouteResult route(const query::PairQuery& query) const {
    return route(query, RouteLimits{});
  }
  [[nodiscard]] query::RouteResult route(const query::PairQuery& query,
                                         const RouteLimits& limits) const;

  /// Convenience wrapper for direct fault-layer callers.
  [[nodiscard]] query::RouteResult route(core::Node s, core::Node t,
                                         const core::FaultModel& faults,
                                         std::uint64_t time = 0) const {
    return route(query::PairQuery{
        .s = s, .t = t, .faults = &faults, .time = time});
  }

 private:
  core::ContainerCache& cache_;
};

}  // namespace hhc::fault
