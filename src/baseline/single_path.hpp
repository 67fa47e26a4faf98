// Single-path routing baselines for the fault-tolerance experiments.
//
// Two reference points bracket the disjoint-path router. Both read their
// core::FaultModel at time 0 and cross an edge only when edge_usable_at
// holds, so node and link faults count alike:
//   * fixed:    the deterministic constructive route; fails if any hop on
//               it is faulty (what a router without path diversity does).
//   * adaptive: BFS on the fault-free subgraph — an oracle that succeeds
//               whenever s and t remain connected, at the cost of global
//               knowledge and O(N) work per query (m <= 4 only).
#pragma once

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "graph/adjacency_list.hpp"

namespace hhc::baseline {

/// The deterministic single route if fault-free, otherwise empty.
[[nodiscard]] core::Path fixed_single_route(const core::HhcTopology& net,
                                            core::Node s, core::Node t,
                                            const core::FaultModel& faults);

/// Shortest fault-free path by BFS over the explicit graph (oracle router);
/// empty when s and t are disconnected by the faults.
[[nodiscard]] core::Path adaptive_bfs_route(const graph::AdjacencyList& g,
                                            core::Node s, core::Node t,
                                            const core::FaultModel& faults);

}  // namespace hhc::baseline
