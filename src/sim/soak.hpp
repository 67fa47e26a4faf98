// Chaos/soak harness for the path-query engine (the overload contract's
// end-to-end test bed).
//
// The harness replays traffic against one PathService while the fault
// landscape EVOLVES underneath it: seeded outage bursts fail random nodes
// for a window of epochs and are then repaired, and an optional hostile
// pair is severed during every outage so the circuit breaker has something
// deterministic to trip on. Two arrival models:
//
//   * open-loop (default): arrivals are pushed through a bounded
//     ThreadPool queue (util::ThreadPool::try_submit) so offered load
//     beyond the consumers' capacity is shed at the door instead of
//     queueing without limit — the generator never waits for completions
//     within an epoch;
//   * closed-loop (config.closed_loop): a fixed set of `workers` streams
//     each issue the next query only when the previous one completes, so
//     offered load self-regulates to the service's capacity (door_shed
//     stays 0 by construction) and report.goodput_qps() measures the
//     sustainable completion rate — the F6b goodput-plateau curve.
//
// Both modes consume the seeded RNG identically (two draws per pool
// query), so the query stream for a given seed is the same stream.
//
// What it measures, per fault epoch and in aggregate:
//   * outcome mix (ok / shed / timed-out / authoritative disconnects) and
//     latency percentiles, so recovery after a repair is visible as the
//     ok-rate climbing back in healed epochs;
//   * the worst deadline overrun across every completed query — the
//     cooperative-cancellation contract says this stays within one
//     stage-check interval (plus scheduler noise), and the soak test pins
//     it;
//   * stuck queries: arrivals that were admitted but never completed
//     (always zero unless the service deadlocks — the zero is the point).
//
// Determinism: pair sampling and the fault schedule are pure functions of
// the seed. Latency-dependent fields (percentiles, overruns, gate sheds at
// a full slot set) are machine-dependent by nature; the soak test asserts
// invariants about them, not exact values.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "query/admission.hpp"

namespace hhc::sim {

struct SoakConfig {
  unsigned m = 2;                    // HHC dimension of the network under test
  std::size_t epochs = 8;            // fault epochs replayed
  std::size_t queries_per_epoch = 128;
  /// Extra anchor->hostile queries per epoch, answered inline in arrival
  /// order. The hostile node is failed during every outage epoch, so these
  /// return authoritative disconnects there — consecutive ones open the
  /// pair's circuit breaker once admission.breaker_threshold is set.
  std::size_t hostile_per_epoch = 0;
  std::size_t workers = 4;           // consumer threads draining arrivals
  std::size_t max_queued = 64;       // try_submit bound; beyond it = door shed
  /// Closed-loop arrivals: `workers` concurrent streams, issue-on-
  /// completion, per-query deadlines armed at issue time (not generation
  /// time). max_queued is ignored — nothing is ever shed at the door.
  bool closed_loop = false;
  double deadline_us = 0.0;          // per-query budget; 0 = none
  double fault_rate = 0.5;           // fraction of epochs starting an outage
  std::size_t faults_per_burst = 2;  // node faults per outage
  std::uint64_t repair_after = 1;    // epochs until an outage is repaired
  std::uint64_t seed = 1;
  query::AdmissionConfig admission{};  // forwarded to the PathService
};

/// Aggregates for one fault epoch.
struct SoakEpoch {
  std::uint64_t epoch = 0;
  std::size_t faults_active = 0;   // distinct faulty elements at this epoch
  std::size_t offered = 0;         // arrivals generated (pool + hostile)
  std::size_t door_shed = 0;       // refused by the bounded arrival queue
  std::size_t ok = 0;              // outcome kOk (any degradation level)
  std::size_t shed = 0;            // service-side kShed (gate / breaker)
  std::size_t timed_out = 0;       // kTimedOut (queued or in flight)
  std::size_t disconnected = 0;    // authoritative kOk + kDisconnected
  double p50_us = 0.0;             // over completed queries only
  double p99_us = 0.0;
  double max_us = 0.0;

  [[nodiscard]] double ok_rate() const noexcept {
    return offered == 0 ? 0.0
                        : static_cast<double>(ok) / static_cast<double>(offered);
  }
};

struct SoakReport {
  SoakConfig config;
  std::vector<SoakEpoch> epochs;

  // Aggregates over the whole run.
  std::size_t offered = 0;
  std::size_t completed = 0;     // ran to a verdict inside the service
  std::size_t door_shed = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t disconnected = 0;
  std::size_t stuck = 0;         // admitted but never completed (must be 0)
  double max_overrun_us = 0.0;   // worst completion past its own deadline
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_short_circuits = 0;
  /// Seconds of query phase: each epoch's submit -> drain span, summed.
  /// Building the topology, the fault schedule and the worker pool, an
  /// epoch's pair generation and its latency tallies are not counted.
  double wall_seconds = 0.0;

  /// Mean ok-rate over epochs with / without an active fault — recovery
  /// after repair shows up as healed_ok_rate >= faulted_ok_rate.
  double faulted_ok_rate = 0.0;
  double healed_ok_rate = 0.0;

  /// Completed-OK answers per wall second — the goodput a closed-loop run
  /// sustains (also meaningful for open-loop runs, where it additionally
  /// reflects door/gate shedding).
  [[nodiscard]] double goodput_qps() const noexcept {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(ok) / wall_seconds;
  }

  /// One row per epoch plus a "total" row.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
  /// Aligned per-epoch table plus an aggregate summary (util::Table).
  void print(std::ostream& os) const;
};

/// Runs the soak described by `config`. The fault schedule and query
/// stream are deterministic in config.seed; timing-derived fields are not.
[[nodiscard]] SoakReport run_soak(const SoakConfig& config);

}  // namespace hhc::sim
