// Distributed fault-tolerant routing with local knowledge only.
//
// The container router (fault/adaptive_router.hpp) assumes the source knows
// the whole fault set. This module models what a deployed switch can
// actually do: at each node the packet sees which of its m+1 links lead to
// a live neighbor and nothing else, and carries a visited set to avoid
// cycles. Routing is
// greedy by a distance heuristic with depth-first backtracking.
//
// Guarantee inherited from the paper's connectivity result: with at most
// m faulty nodes the network stays connected (connectivity m+1), so the
// DFS always reaches t when given enough budget — at the price of a
// possibly longer path. Experiment F7 quantifies that price against the
// global-knowledge container router.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"

namespace hhc::core {

struct LocalRouteResult {
  Path path;                  // empty on failure
  std::size_t backtracks = 0; // hops undone by dead ends
  std::size_t steps = 0;      // total node expansions
  [[nodiscard]] bool ok() const noexcept { return !path.empty(); }
};

/// Borrowed result of the scratch-backed router: `path` points into the
/// scratch and stays valid until its next use.
struct LocalRouteView {
  std::span<const Node> path;  // empty on failure
  std::size_t backtracks = 0;
  std::size_t steps = 0;
  [[nodiscard]] bool ok() const noexcept { return !path.empty(); }
};

/// Reusable DFS state for local_fault_route: the frame stack and untried
/// neighbors live in flat vectors (one allocation amortized over all
/// queries), and the visited set is an open-addressing table whose entries
/// are invalidated wholesale by a generation bump — no per-query clearing,
/// no per-node rehash. Warm scratch => zero heap allocations per route.
class LocalRouteScratch {
 public:
  LocalRouteScratch() = default;
  LocalRouteScratch(const LocalRouteScratch&) = delete;
  LocalRouteScratch& operator=(const LocalRouteScratch&) = delete;

 private:
  friend LocalRouteView local_fault_route(const HhcTopology&, Node, Node,
                                          const FaultModel&, std::size_t,
                                          LocalRouteScratch&);

  struct Frame {
    Node node;
    std::uint32_t begin;  // untried neighbors live in untried_[begin, end)
    std::uint32_t end;    // sorted best-last; consumed by decrementing end
  };

  // Generation-stamped open-addressing visited set (linear probing).
  void visited_clear();
  [[nodiscard]] bool visited_contains(Node v) const noexcept;
  void visited_insert(Node v);
  void visited_grow();

  std::vector<Frame> frames_;
  std::vector<Node> untried_;
  std::vector<Node> path_;
  std::vector<Node> visited_keys_;
  std::vector<std::uint32_t> visited_stamp_;
  std::uint32_t visited_gen_ = 0;
  std::size_t visited_count_ = 0;
};

/// Lower-bound distance heuristic used by the greedy order:
/// popcount(Xv ^ Xt) external crossings + H(Yv, Yt) internal corrections.
[[nodiscard]] std::size_t distance_heuristic(const HhcTopology& net, Node v,
                                             Node t);

/// Greedy DFS routing from s to t avoiding `faults` (read at time 0: a hop
/// is taken only when edge_usable_at holds), expanding at most `max_steps`
/// nodes (0 = unlimited). Neighbors are tried in increasing heuristic
/// order; visited nodes are never re-entered, so the walk terminates and,
/// when the fault-free graph is connected and the budget suffices,
/// succeeds.
[[nodiscard]] LocalRouteResult local_fault_route(const HhcTopology& net,
                                                 Node s, Node t,
                                                 const FaultModel& faults,
                                                 std::size_t max_steps = 0);

/// Allocation-free variant: identical walk (same expansion order, same
/// step/backtrack counts, same path) built in `scratch`. The copying
/// overload above is exactly this on a thread-local scratch plus one copy.
[[nodiscard]] LocalRouteView local_fault_route(const HhcTopology& net, Node s,
                                               Node t,
                                               const FaultModel& faults,
                                               std::size_t max_steps,
                                               LocalRouteScratch& scratch);

}  // namespace hhc::core
