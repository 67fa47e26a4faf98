#include "graph/dinic.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hhc::graph {

Dinic::Dinic(std::size_t node_count)
    : nodes_{node_count}, graph_(node_count) {}

void Dinic::reset(std::size_t node_count) {
  // Never shrink the outer table: destroying an inner vector would free the
  // edge capacity a later, larger problem wants back.
  if (node_count > graph_.size()) graph_.resize(node_count);
  for (std::size_t v = 0; v < std::max(nodes_, node_count); ++v) {
    graph_[v].clear();
  }
  nodes_ = node_count;
  edge_handles_.clear();
}

std::size_t Dinic::add_edge(std::uint32_t u, std::uint32_t v,
                            std::int64_t capacity) {
  if (u >= nodes_ || v >= nodes_) {
    throw std::invalid_argument("Dinic::add_edge: node out of range");
  }
  if (capacity < 0) throw std::invalid_argument("Dinic::add_edge: negative cap");
  graph_[u].push_back(Edge{v, graph_[v].size(), capacity, true});
  graph_[v].push_back(Edge{u, graph_[u].size() - 1, 0, false});
  edge_handles_.emplace_back(u, graph_[u].size() - 1);
  return edge_handles_.size() - 1;
}

bool Dinic::build_levels(std::uint32_t s, std::uint32_t t) {
  level_.assign(nodes_, -1);
  frontier_.clear();
  level_[s] = 0;
  frontier_.push_back(s);
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const std::uint32_t v = frontier_[head];
    for (const Edge& e : graph_[v]) {
      if (e.capacity > 0 && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        frontier_.push_back(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

std::int64_t Dinic::augment(std::uint32_t v, std::uint32_t t,
                            std::int64_t limit) {
  if (v == t) return limit;
  for (std::size_t& i = next_arc_[v]; i < graph_[v].size(); ++i) {
    Edge& e = graph_[v][i];
    if (e.capacity <= 0 || level_[e.to] != level_[v] + 1) continue;
    const std::int64_t pushed =
        augment(e.to, t, std::min(limit, e.capacity));
    if (pushed > 0) {
      e.capacity -= pushed;
      graph_[e.to][e.rev].capacity += pushed;
      return pushed;
    }
  }
  return 0;
}

std::int64_t Dinic::max_flow(std::uint32_t s, std::uint32_t t) {
  if (s >= nodes_ || t >= nodes_) {
    throw std::invalid_argument("Dinic::max_flow: node out of range");
  }
  if (s == t) throw std::invalid_argument("Dinic::max_flow: s == t");
  std::int64_t total = 0;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  while (build_levels(s, t)) {
    next_arc_.assign(nodes_, 0);
    while (const std::int64_t pushed = augment(s, t, kInf)) total += pushed;
  }
  return total;
}

std::int64_t Dinic::flow_on(std::size_t edge_index) const {
  const auto [u, slot] = edge_handles_.at(edge_index);
  const Edge& e = graph_[u][slot];
  // Flow equals the capacity accumulated on the reverse edge.
  return graph_[e.to][e.rev].capacity;
}

}  // namespace hhc::graph
