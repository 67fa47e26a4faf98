#include "query/path_service.hpp"

#include <memory>
#include <stdexcept>

#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace hhc::query {

namespace {

// Slot guard for an admitted query: every exit path (including a thrown
// std::invalid_argument) must give the in-flight slot back.
struct SlotGuard {
  AdmissionGate& gate;
  ~SlotGuard() { gate.release(); }
};

}  // namespace

PathService::PathService(const core::HhcTopology& net, PathServiceConfig config)
    : net_{net},
      config_{config},
      cache_{net, core::ContainerCache::Config{
                      .options = config.options,
                      .shards = config.cache_shards,
                      .max_entries_per_shard = config.max_entries_per_shard}},
      router_{net, &cache_},
      gate_{config.admission},
      breaker_{config.admission.breaker_threshold} {
  if (config_.threads != 1) pool_.emplace(config_.threads);
}

void PathService::count_rejected(const PairQuery& query,
                                 Count outcome) noexcept {
  Tally& tally = tallies_.local();
  tally.bump(received(query));
  tally.bump(outcome);
}

void PathService::account(const PairQuery& query, RouteOutcome outcome,
                          DegradationLevel level, double micros,
                          Tally& tally) {
  (outcome == RouteOutcome::kTimedOut ? tally.latency_timed_out
                                      : tally.latency_ok)
      .record(micros);
  tally.bump(received(query));
  switch (outcome) {
    case RouteOutcome::kOk:
      // Completed answers (and only those) feed the overload detector: a
      // shed query finishes in nanoseconds and would talk the EWMA out of
      // the very overload it is evidence of.
      gate_.record_latency(micros);
      switch (level) {
        case DegradationLevel::kGuaranteed: tally.bump(kGuaranteed); break;
        case DegradationLevel::kBestEffort: tally.bump(kBestEffort); break;
        case DegradationLevel::kDisconnected: tally.bump(kDisconnected); break;
      }
      break;
    case RouteOutcome::kTimedOut:
      // In-flight timeouts did real admitted work; their cost is signal the
      // detector should see and the timed-out histogram keeps it visible.
      gate_.record_latency(micros);
      tally.bump(kTimedOut);
      break;
    case RouteOutcome::kShed:
      // Admitted work reported non-authoritative: breaker short-circuits
      // and degraded skip-fallback answers. Gate sheds never get here —
      // they take the shed-fast return in serve().
      tally.bump(kShed);
      break;
    case RouteOutcome::kInvalid:
      tally.bump(kInvalid);
      break;
  }
}

template <class Result, class Body>
Result PathService::serve(const PairQuery& query, const char* stage,
                          obs::Histogram& stage_hist, Body&& body) {
  if (!net_.contains(query.s) || !net_.contains(query.t)) {
    throw std::invalid_argument("PathService: node out of range");
  }
  // Shed-fast contract: the gate decides BEFORE any per-query work. It
  // answers kTimedOut, exactly once, for a query that arrives expired or
  // cancelled, and kShed at a full or overloaded gate. Either refusal pays
  // two thread-private striped bumps and returns a result carrying only
  // its outcome — no span, no clock read, no histogram, no cache or
  // registry traffic.
  const AdmissionVerdict verdict = gate_.admit(query.deadline, query.cancel);
  if (verdict == AdmissionVerdict::kShed ||
      verdict == AdmissionVerdict::kTimedOut) {
    const bool shed = verdict == AdmissionVerdict::kShed;
    count_rejected(query, shed ? kShed : kTimedOut);
    Result refused;
    refused.outcome = shed ? RouteOutcome::kShed : RouteOutcome::kTimedOut;
    return refused;
  }

  SlotGuard guard{gate_};
  // Telemetry starts only once the query is admitted: the latency
  // histograms measure post-admission service time.
  obs::TraceSpan span{stage, &stage_hist};
  util::Stopwatch watch;
  Tally& tally = tallies_.local();
  Result result = body(verdict == AdmissionVerdict::kAdmittedDegraded, tally);
  result.micros = watch.micros();
  account(query, result.outcome, result.level, result.micros, tally);
  return result;
}

RouteResult PathService::answer(const PairQuery& query) {
  static obs::Histogram& answer_hist =
      obs::stage_histogram(obs::stages::kAnswer);
  return serve<RouteResult>(
      query, obs::stages::kAnswer, answer_hist,
      [&](bool degraded, Tally& tally) {
        if (degraded) tally.bump(kDegradedAdmissions);
        return answer_impl(query, degraded, tally);
      });
}

RouteView PathService::answer_view(const PairQuery& query) {
  if (query.faults != nullptr) {
    throw std::invalid_argument(
        "PathService::answer_view: pristine-only (fault-aware queries must "
        "use answer())");
  }
  // The zero-copy path goes through the same gate as answer(): under a
  // bounded in-flight config a data plane hammering views is exactly the
  // traffic the bound exists for. (A degraded probe admission is plain
  // admission here — there is no fallback to skip.)
  static obs::Histogram& view_hist =
      obs::stage_histogram(obs::stages::kAnswerView);
  return serve<RouteView>(
      query, obs::stages::kAnswerView, view_hist, [&](bool, Tally&) {
        RouteView view;
        view.level = DegradationLevel::kGuaranteed;
        if (query.s == query.t) {
          // One static trivial container {node 0}, borrowed; the XOR mask
          // relabels node 0 to s, so the self-loop answer allocates nothing.
          static const core::FlatContainer kSelf{{0}, {0, 1}};
          view.container = core::ContainerHandle{&kSelf, query.s};
          view.cache_hit = true;
        } else {
          view.container =
              cache_.lookup(query.s, query.t, query.options, &view.cache_hit);
        }
        return view;
      });
}

RouteResult PathService::answer_impl(const PairQuery& query, bool degraded,
                                     Tally& tally) {
  RouteResult result;
  if (query.faults != nullptr) {
    if (breaker_.should_short_circuit(query.s, query.t)) {
      // The pair kept coming back disconnected this epoch; don't spend
      // another survivor sweep proving it again. kShed marks the verdict
      // as non-authoritative.
      result.outcome = RouteOutcome::kShed;
      tally.bump(kBreakerShortCircuits);
      return result;
    }
    result = router_.route(query, {.skip_fallback = degraded});
    if (result.outcome == RouteOutcome::kOk && breaker_.enabled()) {
      breaker_.record(query.s, query.t,
                      result.level == DegradationLevel::kDisconnected);
    }
    return result;
  }

  result.level = DegradationLevel::kGuaranteed;
  if (query.s == query.t) {
    result.paths = {core::Path{query.s}};
    return result;
  }
  // At m <= 4 the cache decodes the pair's orbit record straight into the
  // owning paths: the cache's store is not touched on this path.
  result.paths =
      cache_.materialize(query.s, query.t, query.options, &result.cache_hit)
          .paths;
  return result;
}

std::vector<RouteResult> PathService::answer(
    std::span<const PairQuery> queries) {
  std::vector<RouteResult> results(queries.size());
  const auto body = [&](std::size_t i) {
    try {
      results[i] = answer(queries[i]);
    } catch (const std::invalid_argument&) {
      // Batch isolation: one malformed element must not poison its
      // siblings (or kill the whole parallel_for). The slot reports
      // kInvalid; everything else in the batch completes normally.
      results[i] = RouteResult{};
      results[i].outcome = RouteOutcome::kInvalid;
      // Still one received query: keep it in the pristine/fault-aware totals
      // so the outcome partition keeps summing to `queries`.
      count_rejected(queries[i], kInvalid);
    }
  };
  if (pool_) {
    pool_->parallel_for(0, queries.size(), body);
  } else {
    for (std::size_t i = 0; i < queries.size(); ++i) body(i);
  }
  return results;
}

ServiceStats PathService::stats() const {
  ServiceStats stats;
  std::array<std::uint64_t, kCounts> counts{};
  tallies_.for_each([&](const Tally& tally) {
    for (std::size_t c = 0; c < kCounts; ++c) {
      counts[c] += tally.counts[c].load(std::memory_order_relaxed);
    }
    tally.latency_ok.add_to(stats.latency_ok);
    tally.latency_timed_out.add_to(stats.latency_timed_out);
  });
  stats.pristine = counts[kPristine];
  stats.fault_aware = counts[kFaultAware];
  stats.queries = stats.pristine + stats.fault_aware;
  stats.guaranteed = counts[kGuaranteed];
  stats.best_effort = counts[kBestEffort];
  stats.disconnected = counts[kDisconnected];
  stats.shed = counts[kShed];
  stats.timed_out = counts[kTimedOut];
  stats.invalid = counts[kInvalid];
  stats.degraded_admissions = counts[kDegradedAdmissions];
  stats.breaker_short_circuits = counts[kBreakerShortCircuits];
  stats.breaker_trips = breaker_.trips();
  stats.fault_epoch = breaker_.fault_epoch();
  stats.ewma_latency_us = gate_.ewma_latency_us();
  stats.in_flight = gate_.in_flight();
  stats.cache = cache_.stats();
  stats.latency = stats.latency_ok;
  stats.latency.merge(stats.latency_timed_out);
  // Same read instant for the registry, so one ServiceStats carries every
  // telemetry surface (satellites read stats.metrics instead of touching
  // the global registry themselves).
  stats.metrics = obs::MetricRegistry::global().snapshot();
  return stats;
}

void PathService::reset_stats() noexcept { tallies_.reset(); }

}  // namespace hhc::query
