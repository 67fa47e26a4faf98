#include "core/local_routing.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/routing.hpp"

namespace hhc::core {

std::size_t distance_heuristic(const HhcTopology& net, Node v, Node t) {
  const auto crossings = static_cast<std::size_t>(
      bits::popcount(net.cluster_of(v) ^ net.cluster_of(t)));
  const auto internal = static_cast<std::size_t>(
      bits::hamming(net.position_of(v), net.position_of(t)));
  return crossings + internal;
}

// ---------------------------------------------------------------------------
// Generation-stamped visited set
// ---------------------------------------------------------------------------

namespace {

// Fibonacci-style mix; node ids are <= 2^37 (m <= 5) so the sentinel-free
// stamp scheme below needs no reserved key.
std::size_t hash_node(Node v) noexcept {
  return static_cast<std::size_t>(v * 0x9E3779B97F4A7C15ull);
}

}  // namespace

void LocalRouteScratch::visited_clear() {
  if (visited_keys_.empty()) {
    visited_keys_.assign(64, 0);
    visited_stamp_.assign(64, 0);
  }
  if (visited_gen_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(visited_stamp_.begin(), visited_stamp_.end(), 0u);
    visited_gen_ = 0;
  }
  ++visited_gen_;
  visited_count_ = 0;
}

bool LocalRouteScratch::visited_contains(Node v) const noexcept {
  const std::size_t mask = visited_keys_.size() - 1;
  std::size_t i = hash_node(v) & mask;
  while (visited_stamp_[i] == visited_gen_) {
    if (visited_keys_[i] == v) return true;
    i = (i + 1) & mask;
  }
  return false;
}

void LocalRouteScratch::visited_insert(Node v) {
  if (2 * (visited_count_ + 1) > visited_keys_.size()) visited_grow();
  const std::size_t mask = visited_keys_.size() - 1;
  std::size_t i = hash_node(v) & mask;
  while (visited_stamp_[i] == visited_gen_) {
    if (visited_keys_[i] == v) return;
    i = (i + 1) & mask;
  }
  visited_keys_[i] = v;
  visited_stamp_[i] = visited_gen_;
  ++visited_count_;
}

void LocalRouteScratch::visited_grow() {
  std::vector<Node> old_keys = std::move(visited_keys_);
  std::vector<std::uint32_t> old_stamp = std::move(visited_stamp_);
  visited_keys_.assign(2 * old_keys.size(), 0);
  visited_stamp_.assign(2 * old_stamp.size(), 0);
  const std::size_t mask = visited_keys_.size() - 1;
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_stamp[j] != visited_gen_) continue;
    std::size_t i = hash_node(old_keys[j]) & mask;
    while (visited_stamp_[i] == visited_gen_) i = (i + 1) & mask;
    visited_keys_[i] = old_keys[j];
    visited_stamp_[i] = visited_gen_;
  }
}

// ---------------------------------------------------------------------------
// DFS routing
// ---------------------------------------------------------------------------

LocalRouteView local_fault_route(const HhcTopology& net, Node s, Node t,
                                 const FaultModel& faults,
                                 std::size_t max_steps,
                                 LocalRouteScratch& scratch) {
  if (!net.contains(s) || !net.contains(t)) {
    throw std::invalid_argument("local_fault_route: node out of range");
  }
  if (faults.node_faulty_at(s) || faults.node_faulty_at(t)) {
    throw std::invalid_argument("local_fault_route: endpoint is faulty");
  }

  LocalRouteView result;
  scratch.path_.clear();
  if (s == t) {
    scratch.path_.push_back(s);
    result.path = {scratch.path_.data(), 1};
    return result;
  }

  auto& frames = scratch.frames_;
  auto& untried = scratch.untried_;
  frames.clear();
  untried.clear();
  scratch.visited_clear();
  scratch.visited_insert(s);

  // Greedy order by the constructive route-length estimate — a quantity
  // any switch can compute from the (deterministic) topology alone, no
  // global fault knowledge involved. Keys are computed once per neighbor
  // (degree <= 6) and sorted best-LAST so consuming from the end pops the
  // greedy choice, exactly like the historical sorted `untried` vector.
  const auto push_frame = [&](Node v) {
    std::array<std::pair<std::size_t, Node>, 8> order;
    const unsigned degree = net.degree();
    for (unsigned i = 0; i < degree - 1; ++i) {
      const Node u = net.internal_neighbor(v, i);
      order[i] = {route_length(net, u, t), u};
    }
    order[degree - 1] = {route_length(net, net.external_neighbor(v), t),
                         net.external_neighbor(v)};
    // Insertion sort over the used entries. The order is strict and total
    // (the neighbors are distinct), so it is the one std::sort gives.
    for (unsigned i = 1; i < degree; ++i) {
      const std::pair<std::size_t, Node> entry = order[i];
      unsigned j = i;
      for (; j > 0 && (entry.first != order[j - 1].first
                           ? entry.first > order[j - 1].first
                           : entry.second > order[j - 1].second);
           --j) {
        order[j] = order[j - 1];
      }
      order[j] = entry;
    }
    const auto begin = static_cast<std::uint32_t>(untried.size());
    for (unsigned i = 0; i < degree; ++i) untried.push_back(order[i].second);
    frames.push_back(LocalRouteScratch::Frame{
        v, begin, static_cast<std::uint32_t>(untried.size())});
  };

  push_frame(s);

  while (!frames.empty()) {
    if (max_steps != 0 && result.steps >= max_steps) break;
    LocalRouteScratch::Frame& top = frames.back();
    if (top.begin == top.end) {
      // Dead end: backtrack. The node stays visited (a switch would mark
      // the packet's header), so the walk cannot cycle.
      untried.resize(top.begin);
      frames.pop_back();
      if (!frames.empty()) ++result.backtracks;
      continue;
    }
    const Node next = untried[--top.end];
    if (scratch.visited_contains(next) ||
        !faults.edge_usable_at(top.node, next)) {
      continue;
    }
    ++result.steps;
    scratch.visited_insert(next);
    if (next == t) {
      scratch.path_.reserve(frames.size() + 1);
      for (const auto& frame : frames) scratch.path_.push_back(frame.node);
      scratch.path_.push_back(t);
      result.path = {scratch.path_.data(), scratch.path_.size()};
      return result;
    }
    untried.resize(top.end);  // drop the consumed tail before the child frame
    push_frame(next);
  }
  return result;  // failure: path stays empty
}

LocalRouteResult local_fault_route(const HhcTopology& net, Node s, Node t,
                                   const FaultModel& faults,
                                   std::size_t max_steps) {
  thread_local LocalRouteScratch scratch;
  const LocalRouteView view =
      local_fault_route(net, s, t, faults, max_steps, scratch);
  LocalRouteResult result;
  result.path.assign(view.path.begin(), view.path.end());
  result.backtracks = view.backtracks;
  result.steps = view.steps;
  return result;
}

}  // namespace hhc::core
