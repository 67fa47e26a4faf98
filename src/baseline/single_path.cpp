#include "baseline/single_path.hpp"

#include <algorithm>
#include <queue>

#include "core/routing.hpp"

namespace hhc::baseline {

core::Path fixed_single_route(const core::HhcTopology& net, core::Node s,
                              core::Node t, const core::FaultModel& faults) {
  if (faults.node_faulty_at(s)) return {};
  core::Path path = core::route(net, s, t);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!faults.edge_usable_at(path[i], path[i + 1])) return {};
  }
  return path;
}

core::Path adaptive_bfs_route(const graph::AdjacencyList& g, core::Node s,
                              core::Node t, const core::FaultModel& faults) {
  const auto S = static_cast<graph::Vertex>(s);
  const auto T = static_cast<graph::Vertex>(t);
  if (S >= g.vertex_count() || T >= g.vertex_count()) return {};
  if (faults.node_faulty_at(s) || faults.node_faulty_at(t)) return {};
  if (S == T) return {s};

  std::vector<graph::Vertex> parent(g.vertex_count(), graph::kNoVertex);
  std::vector<bool> seen(g.vertex_count(), false);
  std::queue<graph::Vertex> frontier;
  seen[S] = true;
  frontier.push(S);
  while (!frontier.empty()) {
    const graph::Vertex v = frontier.front();
    frontier.pop();
    for (const graph::Vertex u : g.neighbors(v)) {
      if (seen[u] || !faults.edge_usable_at(v, u)) continue;
      seen[u] = true;
      parent[u] = v;
      if (u == T) {
        core::Path path{t};
        for (graph::Vertex w = T; w != S;) {
          w = parent[w];
          path.push_back(w);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(u);
    }
  }
  return {};
}

}  // namespace hhc::baseline
