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
//
// The model keeps its windows in time order and nothing else. Every read
// goes through an `ActiveFaults` snapshot of the facts active at one
// instant (see below): the point queries and the adaptive router read the
// calling thread's snapshot through FaultModel::snapshot, which re-resolves
// only when the model or the time leaves what the snapshot covers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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

/// The facts of one FaultModel active at one instant, in a form that costs
/// a few nanoseconds per check.
///
/// An exact open-addressing set (linear probing, load <= 1/2) holds the
/// active facts: a node `v` keyed (v, v), a link by its normalized pair
/// (a, b) with a < b, so the snapshot needs no topology. In front of it
/// sits a filter of one bit per bucket, at least 64 bits per fact, set for
/// every fact's bucket: a check on a healthy element (nearly every check)
/// reads one filter word and stops; only a set bit probes the set.
///
/// The snapshot remembers the model's version() and the interval
/// [valid_from, valid_until) between the latest window boundary at or
/// before the resolve time and the earliest one after it. No window opens
/// or closes inside that interval, so the snapshot answers for every time
/// in it until the model is mutated. Built by FaultModel::resolve; a
/// re-resolve into a snapshot already grown to the active set allocates
/// nothing.
class ActiveFaults {
 public:
  /// One active fact: a node `v` as (v, v), a link as (a, b) with a < b.
  struct Fact {
    Node a = 0;
    Node b = 0;
  };

  [[nodiscard]] bool node_faulty(Node v) const noexcept {
    return contains(v, v);
  }
  [[nodiscard]] bool link_faulty(Node u, Node v) const noexcept {
    return contains(u, v);
  }

  /// True when this snapshot answers for the model stamped `version` at
  /// `time`.
  [[nodiscard]] bool covers(std::uint64_t version,
                            std::uint64_t time) const noexcept {
    return version == version_ && valid_from_ <= time && time < valid_until_;
  }

  /// Number of active facts (nodes plus links).
  [[nodiscard]] std::size_t size() const noexcept { return facts_.size(); }
  /// The active facts, in resolve order.
  [[nodiscard]] std::span<const Fact> facts() const noexcept { return facts_; }
  /// The version() of the model this snapshot was resolved from.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t valid_from() const noexcept {
    return valid_from_;
  }
  [[nodiscard]] std::uint64_t valid_until() const noexcept {
    return valid_until_;
  }

 private:
  friend class FaultModel;

  // No node id reaches 2^37, so an all-ones `a` marks a free slot.
  static constexpr Node kFree = ~Node{0};

  // One multiply (Fibonacci hashing); callers read the top bits. A check
  // sits on the container scan's critical path, so latency beats mixing.
  // Symmetric in (u, v), so a link is hashed before it is normalized and
  // only a filter hit pays for the normalization.
  [[nodiscard]] static std::uint64_t hash(Node u, Node v) noexcept {
    return ((u + v) ^ ((u ^ v) << 29)) * 0x9E3779B97F4A7C15ULL;
  }

  [[nodiscard]] bool contains(Node u, Node v) const noexcept {
    const std::uint64_t h = hash(u, v);
    const std::uint64_t bit = h >> filter_shift_;
    if (((filter_[bit >> 6] >> (bit & 63)) & 1) == 0) return false;
    const Fact k = u < v ? Fact{u, v} : Fact{v, u};
    const std::size_t mask = slots_.size() - 1;
    for (auto i = static_cast<std::size_t>(h >> slot_shift_);;
         i = (i + 1) & mask) {
      if (slots_[i].a == kFree) return false;
      if (slots_[i].a == k.a && slots_[i].b == k.b) return true;
    }
  }

  /// Sizes the filter and the set to facts_ and inserts every fact.
  void index();

  std::vector<Fact> facts_;        // the active facts, in resolve order
  std::vector<Fact> slots_;        // the exact set, power-of-two size
  std::vector<std::uint64_t> filter_ = std::vector<std::uint64_t>(1, 0);
  unsigned filter_shift_ = 58;     // 64 - log2(filter bits)
  unsigned slot_shift_ = 64;       // 64 - log2(slots_.size())
  std::uint64_t version_ = 0;      // no model carries version 0
  std::uint64_t valid_from_ = 0;
  std::uint64_t valid_until_ = 0;  // empty interval: covers nothing
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

  /// The calling thread's snapshot of this model at `time`, re-resolved
  /// only when it does not cover (version(), time). A thread has one
  /// snapshot for every model it reads: the reference stays valid until
  /// this thread's next snapshot read on any model, the point queries below
  /// included.
  [[nodiscard]] const ActiveFaults& snapshot(std::uint64_t time = 0) const;

  // The point queries, each one snapshot read.
  [[nodiscard]] bool node_faulty_at(Node v, std::uint64_t time = 0) const {
    return snapshot(time).node_faulty(v);
  }
  [[nodiscard]] bool link_faulty_at(Node u, Node v,
                                    std::uint64_t time = 0) const {
    // The snapshot keys a node v as the pair (v, v): no link.
    return u != v && snapshot(time).link_faulty(u, v);
  }

  /// Edge {u, v} traversable at `time`: both endpoints healthy and the link
  /// itself healthy. Does not check that the edge exists in any topology.
  [[nodiscard]] bool edge_usable_at(Node u, Node v,
                                    std::uint64_t time = 0) const {
    const ActiveFaults& active = snapshot(time);
    return !active.node_faulty(u) && !active.node_faulty(v) &&
           !active.link_faulty(u, v);
  }

  /// Number of distinct nodes plus links with an active fault at `time`.
  [[nodiscard]] std::size_t fault_count(std::uint64_t time = 0) const {
    return snapshot(time).size();
  }

  /// A stamp unique in the process to this model's current contents.
  /// Every mutation takes a fresh one; a copy shares its source's (same
  /// contents), and a moved-from model takes a fresh one. A snapshot
  /// resolved from a model is therefore current exactly while its version
  /// matches, whatever address the model lives at.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.value();
  }

  /// Rebuilds `out` as the facts active at `time`, each once, with the
  /// interval over which they stay active (ActiveFaults). Costs
  /// O(log windows + active facts) when no transient window is much longer
  /// than the rest: the validity interval is a binary search of the
  /// windows' fail times and of the transient repair times, the permanent
  /// facts are a prefix of the permanent windows by fail time, and only the
  /// transient windows failing in [time - longest transient window, time]
  /// are scanned. One very long transient window widens that scan toward
  /// the whole history. A caller resolves once and then reads the snapshot
  /// for as long as ActiveFaults::covers says it may.
  void resolve(std::uint64_t time, ActiveFaults& out) const;

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
  // One registered window and its fact, as resolve() reads it: a node v as
  // (v, v), a link by its normalized pair.
  struct TimedFact {
    std::uint64_t fail_time = 0;
    std::uint64_t repair_time = kNeverRepaired;
    Node a = 0;
    Node b = 0;
  };

  // Files a window in time order and re-stamps the model.
  void record(Node a, Node b, std::uint64_t fail_time,
              std::uint64_t repair_time);

  // The version stamp: copies keep it, moves hand it over and re-stamp
  // the source, construction and renew() draw a fresh one.
  class Stamp {
   public:
    Stamp() noexcept : value_{next()} {}
    Stamp(const Stamp&) noexcept = default;
    Stamp& operator=(const Stamp&) noexcept = default;
    Stamp(Stamp&& other) noexcept : value_{other.value_} {
      other.value_ = next();
    }
    Stamp& operator=(Stamp&& other) noexcept {
      value_ = other.value_;
      other.value_ = next();
      return *this;
    }

    void renew() noexcept { value_ = next(); }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

   private:
    static std::uint64_t next() noexcept;
    std::uint64_t value_;
  };

  // The model's only index, in time order. The mutators keep it sorted, so
  // an in-order registration is an append; equal fail times keep
  // registration order.
  std::vector<TimedFact> permanent_;        // by fail time
  std::vector<TimedFact> transient_;        // by fail time
  std::vector<std::uint64_t> repair_times_;  // transient_'s, ascending
  std::uint64_t longest_transient_ = 0;     // max repair - fail
  Stamp version_;
};

}  // namespace hhc::core
