// The fault model every fault-aware module reads.
//
// The paper's m+1 disjoint-path guarantee speaks about permanent node
// faults. Real campaigns need more: *link* faults (an edge dies while both
// endpoints stay up, which the node-disjoint argument does not cover) and
// *transient* faults that fail at one time and are repaired at another.
// `FaultModel` carries all three, and every router, baseline and
// simulator takes it.
//
// Times are simulator cycles. A fault is active during the half-open window
// [fail_time, repair_time); `kNeverRepaired` makes it permanent. Queries
// default to time 0; callers without a clock of their own read the model
// there, where every permanent fault is already active.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hhc::core {

inline constexpr std::uint64_t kNeverRepaired =
    std::numeric_limits<std::uint64_t>::max();

/// One outage: active during [fail_time, repair_time).
struct FaultWindow {
  std::uint64_t fail_time = 0;
  std::uint64_t repair_time = kNeverRepaired;

  [[nodiscard]] bool active_at(std::uint64_t time) const noexcept {
    return fail_time <= time && time < repair_time;
  }
};

class FaultModel {
 public:
  FaultModel() = default;

  /// Fails node `v` during [fail_time, repair_time).
  void fail_node(Node v, std::uint64_t fail_time = 0,
                 std::uint64_t repair_time = kNeverRepaired);

  /// Fails the undirected link {u, v} during [fail_time, repair_time).
  /// The pair is normalized internally; u != v is required.
  void fail_link(Node u, Node v, std::uint64_t fail_time = 0,
                 std::uint64_t repair_time = kNeverRepaired);

  [[nodiscard]] bool node_faulty_at(Node v, std::uint64_t time = 0) const;
  [[nodiscard]] bool link_faulty_at(Node u, Node v,
                                    std::uint64_t time = 0) const;

  /// Edge {u, v} traversable at `time`: both endpoints healthy and the link
  /// itself healthy. Does not check that the edge exists in any topology.
  [[nodiscard]] bool edge_usable_at(Node u, Node v,
                                    std::uint64_t time = 0) const {
    return !node_faulty_at(u, time) && !node_faulty_at(v, time) &&
           !link_faulty_at(u, v, time);
  }

  /// Number of distinct nodes / links with an active fault at `time`.
  [[nodiscard]] std::size_t node_fault_count(std::uint64_t time = 0) const;
  [[nodiscard]] std::size_t link_fault_count(std::uint64_t time = 0) const;
  [[nodiscard]] std::size_t fault_count(std::uint64_t time = 0) const {
    return node_fault_count(time) + link_fault_count(time);
  }

  /// True when no fault was ever registered.
  [[nodiscard]] bool empty() const noexcept {
    return node_faults_.empty() && link_faults_.empty();
  }

  /// True when some registered fault has a finite repair time.
  [[nodiscard]] bool has_transient() const noexcept { return has_transient_; }

  /// What FaultModel::random injects. Counts are distinct elements; all
  /// sampled faults share the same [fail_time, repair_time) window.
  struct RandomSpec {
    std::size_t node_faults = 0;
    std::size_t internal_link_faults = 0;  // edges inside a cluster
    std::size_t external_link_faults = 0;  // gateway edges between clusters
    std::uint64_t fail_time = 0;
    std::uint64_t repair_time = kNeverRepaired;
  };

  /// Uniform distinct faults per the spec; node faults never hit s or t
  /// (link faults may touch them — surviving that is the adaptive router's
  /// job, not the container's). Deterministic in `rng`. Throws
  /// std::invalid_argument when a requested count exceeds its population.
  static FaultModel random(const HhcTopology& net, const RandomSpec& spec,
                           Node s, Node t, util::Xoshiro256& rng);

 private:
  struct LinkKey {
    Node a = 0;  // min endpoint
    Node b = 0;  // max endpoint
    bool operator==(const LinkKey&) const = default;
  };
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& k) const noexcept;
  };

  static LinkKey normalize(Node u, Node v) {
    return u < v ? LinkKey{u, v} : LinkKey{v, u};
  }

  static bool any_active(const std::vector<FaultWindow>& windows,
                         std::uint64_t time);

  std::unordered_map<Node, std::vector<FaultWindow>> node_faults_;
  std::unordered_map<LinkKey, std::vector<FaultWindow>, LinkKeyHash>
      link_faults_;
  bool has_transient_ = false;
};

}  // namespace hhc::core
