// Admission control and circuit breaking for the path-query engine.
//
// Two mechanisms keep PathService answering within bounded time when
// offered load exceeds capacity, instead of queueing without limit or
// parking workers in expensive fallbacks:
//
//   AdmissionGate    a bounded in-flight limit that sheds: a query arriving
//                    at a full gate is refused (outcome kShed) after one
//                    yield. It is also the one place that classifies a
//                    query that is already expired or cancelled on arrival
//                    (kTimedOut).
//   CircuitBreaker   a per-fault-epoch memory of repeatedly-disconnected
//                    pairs: once a pair reports kDisconnected `threshold`
//                    consecutive times within one fault epoch, further
//                    queries for it short-circuit to an immediate shed
//                    until the epoch advances (i.e. the fault landscape
//                    changes), sparing the survivor-subgraph BFS the
//                    hopeless full-graph sweeps that make hostile fault
//                    sets so expensive.
//
// Shed-fast contract: a shed decision performs NO shared-memory writes.
// The in-flight bound is a set of slots, one cache line each, claimed by a
// read + exchange that only writes on successful admission; a caller
// reclaims the slot it released last, so a steady caller's claim and
// release stay in its own core's cache. A rejection at the bound yields
// the caller's CPU once, to a slot holder that may be waiting for it. An
// unlimited gate reads nothing shared at all. This is what makes
// rejection effectively free and lets goodput plateau under overload
// instead of collapsing (the F6b closed-loop sweep in BENCH_query.json is
// the acceptance curve).
//
// Both are policy ONLY — they never alter the bits of an answer that is
// delivered with RouteOutcome::kOk. With the default config (no limit, no
// breaker) both are inert and the service behaves exactly as it did
// before this layer existed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/topology.hpp"
#include "util/deadline.hpp"

namespace hhc::query {

struct AdmissionConfig {
  /// Concurrent in-flight answer() bound; 0 = unlimited. An unlimited gate
  /// does no occupancy accounting at all (admit/release are read-only), so
  /// the default config adds zero shared writes to the query hot path. A
  /// bounded gate keeps one cache line per slot.
  std::size_t max_in_flight = 0;
  /// Consecutive kDisconnected answers for one pair (within one fault
  /// epoch) that open its breaker; 0 = breaker disabled.
  std::size_t breaker_threshold = 0;
};

/// Gate verdicts, in decreasing order of service delivered.
enum class AdmissionVerdict {
  kAdmitted,          // run the full query
  kAdmittedDegraded,  // never returned; kept only for callers that name it
  kShed,              // rejected: every slot is held
  kTimedOut,          // expired or cancelled on arrival
};

/// The bounded in-flight gate. Thread-safe; one admit() that returns
/// kAdmitted must be paired with exactly one release() (PathService uses
/// an RAII guard).
class AdmissionGate {
 public:
  explicit AdmissionGate(AdmissionConfig config)
      : config_{config},
        id_{next_id().fetch_add(1, std::memory_order_relaxed)},
        slots_{std::make_unique<Slot[]>(config.max_in_flight)} {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Decides one query's fate without blocking. A query whose deadline has
  /// passed or whose token is cancelled answers kTimedOut before any slot
  /// is read. A kShed verdict writes no shared memory.
  [[nodiscard]] AdmissionVerdict admit(const util::Deadline& deadline,
                                       const util::CancellationToken* cancel);

  /// Gives back one successful admit()'s slot. No-op on an unlimited gate
  /// (no slot was ever claimed).
  void release() noexcept;

  /// Instantaneous occupancy: claimed slots. Always 0 for an unlimited
  /// gate (which does no accounting — see AdmissionConfig::max_in_flight).
  [[nodiscard]] std::size_t in_flight() const noexcept;

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  /// This thread's last claimed slot per gate, indexed by gate id.
  [[nodiscard]] static std::vector<std::size_t>& own_slots() noexcept;
  /// Claims a free slot, trying this thread's last one first.
  [[nodiscard]] bool try_claim() noexcept;

  [[nodiscard]] static std::atomic<std::uint64_t>& next_id() noexcept {
    static std::atomic<std::uint64_t> id{0};
    return id;
  }

  AdmissionConfig config_;
  const std::uint64_t id_;  // process-unique; keys the per-thread slot
  // The bound as max_in_flight slots, one cache line each. A thread
  // reclaims the slot it released last, so a steady caller's claim and
  // release stay in its own core's cache instead of passing one shared
  // counter line between cores on every query.
  struct alignas(64) Slot {
    std::atomic<bool> taken{false};
  };
  std::unique_ptr<Slot[]> slots_;
};

/// Per-fault-epoch short-circuit for repeatedly-disconnected pairs. The
/// breaker owns the epoch counter: advance_fault_epoch() is WAIT-FREE (one
/// relaxed increment) and entries from older epochs reset lazily on their
/// next touch, so a repair gives every pair a fresh chance without any
/// sweep. should_short_circuit() is read-only until the first breaker
/// entry exists (one relaxed load), so pristine-heavy traffic never pays
/// for the map mutex.
class CircuitBreaker {
 public:
  /// threshold = consecutive disconnects that open a pair's breaker;
  /// 0 disables the breaker entirely (both methods become no-ops).
  explicit CircuitBreaker(std::size_t threshold) : threshold_{threshold} {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Tells the breaker the fault landscape changed (faults added or
  /// repaired): every open breaker gets a fresh chance. Wait-free.
  void advance_fault_epoch() noexcept {
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fault_epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// True when (s, t) should be short-circuited at the current epoch — its
  /// breaker opened in this same epoch and has not been reset by an epoch
  /// advance.
  [[nodiscard]] bool should_short_circuit(core::Node s, core::Node t);

  /// Records one authoritative answer for (s, t): a disconnect extends the
  /// streak (opening the breaker at the threshold), anything else resets
  /// the pair's entry if it has one. Only a disconnect inserts an entry, so
  /// the map holds pairs that were seen disconnected, not every pair
  /// answered, and a success is read-only until the first disconnect.
  void record(core::Node s, core::Node t, bool disconnected);

  /// Breakers opened since construction (monotone; telemetry only).
  [[nodiscard]] std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool enabled() const noexcept { return threshold_ > 0; }

 private:
  struct PairKey {
    core::Node s = 0;
    core::Node t = 0;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      std::uint64_t h = k.s * 0x9e3779b97f4a7c15ULL;
      h ^= (k.t + 0xbf58476d1ce4e5b9ULL) + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    std::uint64_t epoch = 0;
    std::size_t streak = 0;
    bool open = false;
  };

  std::size_t threshold_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> trips_{0};
  std::atomic<bool> has_entries_{false};
  std::mutex mutex_;
  std::unordered_map<PairKey, Entry, PairKeyHash> entries_;
};

}  // namespace hhc::query
