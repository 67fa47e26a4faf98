// Built-in observability for the path-query engine.
//
// ServiceStats is the plain-data snapshot PathService::stats() returns:
// query/level/outcome totals, the overload tallies, the cache's counters,
// and the answer-latency distribution, renderable as an aligned table, CSV,
// or JSON (via core::io) so service telemetry lands in the same formats as
// campaign reports. It is the ONE source for these numbers: the
// registry carries no duplicate of any of them.
//
// Where the numbers come from: every caller thread owns one cache-line-
// aligned stripe per service (util::Striped) holding all of its per-query
// tallies and its two latency histogram stripes (obs::Histogram::Stripe),
// so an answer resolves one TLS slot and never writes a line another
// caller writes; stats() folds the stripes. Totals are exact when writers
// are quiescent and at-most-one-update racy under load.
//
// Latency semantics: the histograms measure POST-ADMISSION service time
// in µs, one record per admitted answer. latency_ok holds answers that
// completed (kOk, plus the admitted non-authoritative sheds: breaker
// short-circuits and cut m = 5 containers); latency_timed_out holds
// in-flight expiries; latency is their merge. Gate-shed queries and admission-time
// deadline expiries never touch them — the shed-fast path records nothing
// but striped outcome tallies — so under overload the distribution
// describes the work actually performed, not a blur of sub-microsecond
// rejections. Buckets are obs::Histogram's log-linear layout (<= 12.5%
// relative error); percentiles throw on an empty snapshot, so renderers
// print 0 for one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/container_cache.hpp"
#include "obs/metrics.hpp"

namespace hhc::query {

/// Point-in-time service telemetry; see PathService::stats().
struct ServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t pristine = 0;       // container-only queries
  std::uint64_t fault_aware = 0;    // queries with a fault view attached
  // Level counters only count authoritative (outcome kOk) answers; the
  // outcome counters below cover the rest, so
  //   guaranteed + best_effort + disconnected + shed + timed_out + invalid
  // always equals `queries`.
  std::uint64_t guaranteed = 0;
  std::uint64_t best_effort = 0;
  std::uint64_t disconnected = 0;

  // Overload robustness (see DESIGN.md §8/§10). shed includes both gate
  // rejections and breaker short-circuits; the latter also counted apart.
  // shed/timed_out are the ONLY tallies the shed-fast rejection path
  // touches.
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t invalid = 0;               // malformed batch elements
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t breaker_trips = 0;         // breakers opened (monotone)
  std::uint64_t fault_epoch = 0;           // the breaker's current epoch
  std::uint64_t in_flight = 0;             // instantaneous occupancy

  core::CacheStats cache;

  obs::Histogram::Snapshot latency;            // every admitted answer, µs
  obs::Histogram::Snapshot latency_ok;         // completed answers
  obs::Histogram::Snapshot latency_timed_out;  // in-flight expiries

  /// The process-wide obs::MetricRegistry's counters, captured at the same
  /// stats() read.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] double hit_rate() const noexcept { return cache.hit_rate(); }

  /// Everything as unified core::StatRow rows: the query-level counters
  /// (section "service"), the answer-latency distributions (section
  /// "latency": answer_us, answer_ok_us, answer_timed_out_us), the cache
  /// snapshot (sections "cache"/"cache.orbit"), then the registry's
  /// counters (section "counter"). Trace stages are not here: fold a
  /// drain with obs::stage_rows.
  [[nodiscard]] std::vector<core::StatRow> rows() const;

  /// core::stat_rows_csv / core::stat_rows_json over rows() — the same
  /// schema ContainerCache stats and the obs registry export render with.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
  /// Aligned human-readable summary (util::Table).
  void print(std::ostream& os) const;
};

}  // namespace hhc::query
