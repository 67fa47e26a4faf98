// Exact vertex-disjoint path extraction via node splitting + max flow.
//
// Menger's theorem: the maximum number of internally vertex-disjoint s-t
// paths equals the minimum s-t vertex cut. Splitting every internal vertex
// v into v_in -> v_out with unit capacity turns vertex disjointness into
// edge capacities, and Dinic recovers an optimal path system.
//
// These routines serve three roles in the repository:
//   1. the exact baseline the constructive HHC algorithm is compared to,
//   2. the in-cluster "fan" subproblems of the constructive algorithm
//      (clusters have <= 32 vertices, so exact max flow is O(1) — but not
//      free: the two fans are most of an m = 4 construction, which is why
//      core::ConstructionScratch memoizes the fans it solves here),
//   3. independent verification of connectivity in the test suite.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/adjacency_list.hpp"
#include "graph/dinic.hpp"
#include "graph/types.hpp"

namespace hhc::graph {

/// Reusable workspace for the flow-based disjoint-path routines below.
///
/// The HHC construction solves two endpoint-fan subproblems per query on a
/// <= 32-node cluster graph; building a fresh Dinic network (plus the flow
/// decomposition scratch) each time dominated the allocation profile of the
/// whole construction. A warm workspace cycled through same-shaped problems
/// performs ZERO heap allocations: the flow network, the consumed-edge
/// marks, and the result paths all reuse prior capacity.
///
/// Results are spans into workspace-owned storage, valid until the next
/// call on the same workspace. Not thread-safe; use one per thread (the
/// construction reaches it through core::ConstructionScratch).
///
/// Each method is result-identical to the free function of the same shape
/// below (same network layout, same augmentation order, same flow
/// decomposition) — asserted by the differential suite.
class FanWorkspace {
 public:
  FanWorkspace() = default;
  FanWorkspace(const FanWorkspace&) = delete;
  FanWorkspace& operator=(const FanWorkspace&) = delete;

  /// max_vertex_disjoint_paths, workspace-backed.
  [[nodiscard]] std::span<const VertexPath> max_disjoint_paths(
      const AdjacencyList& g, Vertex s, Vertex t,
      std::size_t limit = static_cast<std::size_t>(-1));

  /// vertex_disjoint_fan, workspace-backed: result[i] ends at targets[i].
  [[nodiscard]] std::span<const VertexPath> fan(const AdjacencyList& g,
                                                Vertex s,
                                                std::span<const Vertex> targets);

  /// vertex_disjoint_reverse_fan, workspace-backed.
  [[nodiscard]] std::span<const VertexPath> reverse_fan(
      const AdjacencyList& g, std::span<const Vertex> sources, Vertex t);

 private:
  void build_split_network(const AdjacencyList& g, Vertex skip1, Vertex skip2,
                           std::size_t extra_nodes);
  void prepare_decomposition();
  void walk_unit(std::uint32_t start, std::uint32_t stop);
  [[nodiscard]] VertexPath& slot(std::size_t i);

  Dinic net_{0};
  std::vector<std::vector<bool>> consumed_;  // per-node edge marks, reused
  std::vector<std::uint32_t> trail_;         // flow-network walk, reused
  std::vector<VertexPath> paths_;            // result storage, reused
  std::vector<std::size_t> target_slot_;     // vertex -> result index
};

/// Maximum set of internally vertex-disjoint s-t paths (s != t).
/// Paths include both endpoints. At most `limit` paths are returned (the
/// flow is capped), which keeps the search cheap when only k paths matter.
[[nodiscard]] std::vector<VertexPath> max_vertex_disjoint_paths(
    const AdjacencyList& g, Vertex s, Vertex t,
    std::size_t limit = static_cast<std::size_t>(-1));

/// Number of internally vertex-disjoint s-t paths (the local connectivity
/// kappa(s, t)), without materializing the paths.
[[nodiscard]] std::size_t vertex_connectivity_between(const AdjacencyList& g,
                                                      Vertex s, Vertex t);

/// One-to-many fan: paths from `s` to each target, pairwise vertex-disjoint
/// except at `s`, with result[i] ending exactly at targets[i].
/// Targets must be distinct and != s. Throws std::runtime_error when no
/// complete fan exists (i.e. max flow < targets.size()).
[[nodiscard]] std::vector<VertexPath> vertex_disjoint_fan(
    const AdjacencyList& g, Vertex s, std::span<const Vertex> targets);

/// Many-to-one fan: result[i] starts exactly at sources[i] and ends at `t`;
/// paths are pairwise vertex-disjoint except at `t`.
[[nodiscard]] std::vector<VertexPath> vertex_disjoint_reverse_fan(
    const AdjacencyList& g, std::span<const Vertex> sources, Vertex t);

/// Set-to-set Menger: a maximum system of TOTALLY vertex-disjoint paths
/// (endpoints included) from the source set to the sink set. Each path
/// starts at some source and ends at some sink; no vertex is shared by two
/// paths. Sources and sinks must each be duplicate-free; a vertex listed
/// in both sets yields the trivial single-vertex path.
[[nodiscard]] std::vector<VertexPath> set_to_set_disjoint_paths(
    const AdjacencyList& g, std::span<const Vertex> sources,
    std::span<const Vertex> sinks);

}  // namespace hhc::graph
