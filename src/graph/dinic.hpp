// Dinic's maximum-flow algorithm on a unit-ish capacity network.
//
// Used to (a) extract exact vertex-disjoint path sets via node splitting,
// (b) verify connectivity (Menger's theorem) as an independent check on the
// constructive algorithm. Capacities are small integers; the implementation
// is the classic level-graph + current-arc variant.
#pragma once

#include <cstdint>
#include <vector>

namespace hhc::graph {

class Dinic {
 public:
  explicit Dinic(std::size_t node_count);

  /// Drops all edges and re-dimensions the network to `node_count` nodes,
  /// REUSING the adjacency storage of previous runs (per-node edge vectors
  /// keep their capacity, and the node table never shrinks). A warm Dinic
  /// cycled through same-shaped problems performs no heap allocations —
  /// this is what lets the construction hot path run allocation-free.
  void reset(std::size_t node_count);

  /// Adds a directed edge u -> v with the given capacity.
  /// Returns the edge index (usable with flow_on() after max_flow()).
  std::size_t add_edge(std::uint32_t u, std::uint32_t v, std::int64_t capacity);

  /// Computes the maximum s -> t flow. May be called once per problem
  /// (i.e. once after construction or each reset()).
  std::int64_t max_flow(std::uint32_t s, std::uint32_t t);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }

  /// Flow pushed through the edge returned by add_edge().
  [[nodiscard]] std::int64_t flow_on(std::size_t edge_index) const;

  struct Edge {
    std::uint32_t to;
    std::size_t rev;        // index of the reverse edge in graph_[to]
    std::int64_t capacity;  // residual capacity
    bool is_forward;        // original direction (reverse edges carry flow)
  };

  /// Adjacency of residual edges for node v (forward and reverse entries).
  [[nodiscard]] const std::vector<Edge>& residual(std::uint32_t v) const {
    return graph_[v];
  }

 private:
  bool build_levels(std::uint32_t s, std::uint32_t t);
  std::int64_t augment(std::uint32_t v, std::uint32_t t, std::int64_t limit);

  std::size_t nodes_ = 0;                 // logical node count
  std::vector<std::vector<Edge>> graph_;  // size >= nodes_; extras stay warm
  std::vector<std::pair<std::uint32_t, std::size_t>> edge_handles_;
  std::vector<std::int32_t> level_;
  std::vector<std::size_t> next_arc_;
  std::vector<std::uint32_t> frontier_;   // reusable BFS queue
};

}  // namespace hhc::graph
