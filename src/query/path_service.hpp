// hhc::query::PathService — the concurrent path-query engine.
//
// One thread-safe object that every consumer of disjoint-path routing talks
// to, layered over the existing construction:
//
//   * a translation-canonical ContainerCache (an insert-only store read
//     with acquire loads, striped hit/miss counters) so concurrent queries
//     take no lock on a hit. It serves one construction, the paper's
//     (container_cache.hpp states which container). At m <= 4 answer()
//     decodes the pair's orbit record straight into owning paths.
//     answer(), answer_view() and fault-aware container scans agree on
//     every pair;
//   * a batch API answer(span<PairQuery>) that fans out over the in-repo
//     util::ThreadPool with deterministic result ordering: results[i] always
//     answers queries[i], and the routed paths/levels are identical for any
//     thread count (only the timing/cache_hit telemetry fields may differ,
//     since which racing thread populates a cache entry first is scheduling-
//     dependent);
//   * fault-aware queries: a PairQuery carrying a FaultModel view routes
//     through fault::AdaptiveRouter — which shares this service's cache for
//     its container scans — so one service answers both pristine and
//     degraded-mode traffic;
//   * observability: the cache's hit/miss counters and entry count,
//     per-thread striped query tallies and latency histograms, and a
//     stats() snapshot renderable as table, CSV, or JSON (query/stats.hpp).
//
// Semantics note: unlike the bare construction (which throws), a service
// treats s == t as the trivial answer — one zero-length path, kGuaranteed —
// because for an operational query engine "route to yourself" is a valid
// request, not a programming error. Out-of-range nodes still throw.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/container_cache.hpp"
#include "core/topology.hpp"
#include "fault/adaptive_router.hpp"
#include "query/admission.hpp"
#include "query/stats.hpp"
#include "query/types.hpp"
#include "util/deadline.hpp"
#include "util/striped.hpp"
#include "util/thread_pool.hpp"

namespace hhc::query {

/// Borrowed answer of the zero-copy pristine fast path (answer_view).
/// `container` relabels nodes lazily, so a cache hit allocates nothing and
/// copies no node data. It borrows the cache's store entry (or a static
/// self-loop container) and is valid while the PathService lives; for a
/// class past the store's capacity it shares ownership of its container
/// and outlives the service.
struct RouteView {
  core::ContainerHandle container;
  DegradationLevel level = DegradationLevel::kDisconnected;
  RouteOutcome outcome = RouteOutcome::kOk;  // kShed/kTimedOut => !ok()
  bool cache_hit = false;  // served without running the construction
  double micros = 0.0;     // service-side wall time

  [[nodiscard]] bool ok() const noexcept { return container.valid(); }
};

struct PathServiceConfig {
  /// The cache's capacity factors (core::ContainerCache::Config): with
  /// max_entries_per_shard > 0 it holds cache_shards x max_entries_per_shard
  /// classes; with 0, every class up to 2^16. The construction served is
  /// not configurable: it is the one core::ContainerCache serves.
  std::size_t cache_shards = 16;
  std::size_t max_entries_per_shard = 0;
  /// Workers for the batch API: 0 = hardware concurrency, 1 = run batches
  /// inline on the caller's thread (no pool spawned at all).
  std::size_t threads = 1;
  /// Overload robustness (in-flight bound, breaker). The default is fully
  /// inert: no limit, no breaker — answers are bit-identical to a service
  /// without the admission layer.
  AdmissionConfig admission{};
};

class PathService {
 public:
  /// The topology is held by reference; keep it alive beside the service.
  explicit PathService(const core::HhcTopology& net,
                       PathServiceConfig config = {});

  PathService(const PathService&) = delete;
  PathService& operator=(const PathService&) = delete;

  /// Answers one query. Thread-safe: any number of threads may call
  /// concurrently (this is what the batch API does internally). Throws
  /// std::invalid_argument for out-of-range nodes, before the gate sees
  /// the query. Overload behavior: admission may shed the query (outcome
  /// kShed); a query that arrives expired or cancelled answers kTimedOut,
  /// exactly once, from the gate; an admitted query's deadline is noticed
  /// at stage boundaries, so completion never overruns the deadline by
  /// more than one stage-check interval. Shed-fast contract: a refused
  /// query returns a result carrying only its outcome (no allocation)
  /// after bumping per-thread striped tallies only: no heap state, no
  /// cache traffic, no histogram or registry update, no clock read beyond
  /// the gate's deadline check.
  [[nodiscard]] RouteResult answer(const PairQuery& query);

  /// Answers a batch, fanned out over the service's thread pool. results[i]
  /// corresponds to queries[i] regardless of thread count or scheduling.
  /// Unlike the single-query form, a malformed query (out-of-range node)
  /// does NOT throw here: it yields results[i] with outcome kInvalid and
  /// leaves every sibling result intact — one bad element must not poison
  /// a 10k-query batch.
  [[nodiscard]] std::vector<RouteResult> answer(
      std::span<const PairQuery> queries);

  /// The zero-copy pristine fast path: answers WITHOUT materializing the
  /// container (RouteView.container.materialize() reproduces answer()'s
  /// paths bit for bit). Pristine-only — throws std::invalid_argument when
  /// the query carries a fault view (degraded routes must be materialized;
  /// use answer()). Counted in the same telemetry as answer().
  [[nodiscard]] RouteView answer_view(const PairQuery& query);

  /// Consistent telemetry snapshot (cheap; safe under concurrent answer()).
  [[nodiscard]] ServiceStats stats() const;

  /// Zeroes the service-level counters and latency histograms. Cache
  /// counters are owned by the cache: use cache().clear().
  void reset_stats() noexcept;

  /// Tells the circuit breaker the fault landscape changed (faults added or
  /// repaired): every open breaker gets a fresh chance. Call this whenever
  /// the FaultModel you pass in queries is mutated or swapped, or when a
  /// scheduled repair window opens — the soak harness advances it once per
  /// fault epoch. Wait-free (one relaxed increment on the breaker's epoch);
  /// safe to call concurrently with answers from any thread.
  void advance_fault_epoch() noexcept { breaker_.advance_fault_epoch(); }
  [[nodiscard]] std::uint64_t fault_epoch() const noexcept {
    return breaker_.fault_epoch();
  }

  [[nodiscard]] core::ContainerCache& cache() noexcept { return cache_; }
  [[nodiscard]] const core::ContainerCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] const core::HhcTopology& net() const noexcept { return net_; }
  /// Batch workers actually in use (1 when batches run inline).
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

 private:
  // Everything one caller thread tallies for this service, in one
  // cache-line-aligned stripe: an answer resolves its slot once and writes
  // only memory no other caller writes. stats() folds every stripe.
  enum Count : std::size_t {
    kPristine,
    kFaultAware,
    kGuaranteed,
    kBestEffort,
    kDisconnected,
    kShed,
    kTimedOut,
    kInvalid,
    kBreakerShortCircuits,
    kCounts,
  };
  struct Tally {
    std::array<std::atomic<std::uint64_t>, kCounts> counts{};
    obs::Histogram::Stripe latency_ok;
    obs::Histogram::Stripe latency_timed_out;

    void bump(Count count) noexcept { util::stripe_add(counts[count]); }
  };
  [[nodiscard]] static Count received(const PairQuery& query) noexcept {
    return query.faults == nullptr ? kPristine : kFaultAware;
  }

  [[nodiscard]] RouteResult answer_impl(const PairQuery& query, Tally& tally);
  /// The one admitted-query path behind answer() and answer_view():
  /// validates the nodes, asks the gate, and returns a shed or an arrival
  /// expiry through count_rejected(). An admitted query holds its slot,
  /// `stage` span and stopwatch around body(tally), then is accounted
  /// once.
  template <class Result, class Body>
  Result serve(const PairQuery& query, const char* stage, Body&& body);
  /// Accounting for an ADMITTED query: records the one latency sample and
  /// bumps the outcome and level counters, all in this thread's stripe.
  void account(const PairQuery& query, RouteOutcome outcome,
               DegradationLevel level, double micros, Tally& tally);
  /// A query that was never admitted: gate sheds and arrival expiries (the
  /// shed-fast path) and malformed batch elements. Two bumps in this
  /// thread's stripe, nothing else.
  void count_rejected(const PairQuery& query, Count outcome) noexcept;

  const core::HhcTopology& net_;
  PathServiceConfig config_;
  core::ContainerCache cache_;
  fault::AdaptiveRouter router_;
  std::optional<util::ThreadPool> pool_;
  AdmissionGate gate_;
  CircuitBreaker breaker_;
  util::Striped<Tally> tallies_;
};

}  // namespace hhc::query
