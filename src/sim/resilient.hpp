// Resilient transfer protocols simulated on top of the packet network.
//
// End-to-end strategies for moving one message from s to t under faults,
// all driven through the same simulator so their costs are directly
// comparable (Experiment F5):
//
//   serial-retry : send over the container paths one at a time; a lost
//                  attempt is detected after a timeout of 2 * path length
//                  (round-trip worth of silence), then the next disjoint
//                  path is tried. No erasure coding; worst case pays for
//                  every blocked path before succeeding.
//   dispersal    : all m+1 fragments at once; completes when any m arrive.
//   flooding     : the full message duplicated over every path; completes
//                  when the first copy arrives. Fastest, m+1x bandwidth.
//   backoff      : serial retry with exponentially growing timeouts,
//                  cycling through the container paths. Built for
//                  *transient* faults (core::FaultModel windows): where
//                  serial-retry gives up after m+1 permanently blocked
//                  attempts, backoff keeps waiting — a later pass over an
//                  already-tried path succeeds once the outage is repaired.
//
// Every strategy builds the container with node_disjoint_paths and hands
// `faults` to the simulator. Packets enter at cycle 0, so the model is read
// from time 0 on, one hop per cycle, and a node fault or a link fault on
// the next hop drops the packet alike. Serial retry, dispersal and flooding
// send every packet at cycle 0; only backoff spreads its attempts in time.
#pragma once

#include <cstdint>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hhc::sim {

struct TransferOutcome {
  bool delivered = false;
  std::uint64_t completion_cycles = 0;  // cycles until usable at the sink
  std::size_t attempts = 0;             // paths tried (serial) / sent (others)
  std::size_t wasted_transmissions = 0; // hops traversed by lost packets
};

/// Serial retry over the disjoint container, with per-attempt timeout
/// 2 * (path length) cycles charged for every failed attempt.
[[nodiscard]] TransferOutcome serial_retry_transfer(
    const core::HhcTopology& net, core::Node s, core::Node t,
    const core::FaultModel& faults);

/// One-shot dispersal: m+1 fragments in parallel; done when m arrive.
[[nodiscard]] TransferOutcome dispersal_transfer(
    const core::HhcTopology& net, core::Node s, core::Node t,
    const core::FaultModel& faults);

/// Full duplication over all m+1 paths; done when the first copy arrives.
[[nodiscard]] TransferOutcome flooding_transfer(
    const core::HhcTopology& net, core::Node s, core::Node t,
    const core::FaultModel& faults);

/// Deterministic jitter for one backoff wait: maps `wait` into
/// [wait - wait/2, wait] by subtracting a uniform draw from `rng` (a
/// half-jitter; zero waits stay zero). Many senders backing off from the
/// same outage with distinct seeds desynchronize instead of retrying in
/// lockstep (the thundering herd), while a fixed seed pins the exact
/// attempt schedule — tests assert it cycle for cycle.
[[nodiscard]] std::uint64_t jittered_wait(std::uint64_t wait,
                                          util::Xoshiro256& rng);

/// Retry with exponential backoff over the container, round-robin: attempt
/// k uses path k mod (m+1) and, when lost, waits 2 * (path length) << k
/// cycles before the next attempt (the sender detects loss by silence; the
/// growing wait rides out transient outages). Stops after `max_attempts`.
/// `jitter_seed` != 0 applies jittered_wait() to every backoff interval
/// with an RNG seeded from it (one draw per lost attempt, so the schedule
/// is a pure function of the seed); 0 keeps the exact deterministic
/// schedule the un-jittered protocol always had.
[[nodiscard]] TransferOutcome backoff_retry_transfer(
    const core::HhcTopology& net, core::Node s, core::Node t,
    const core::FaultModel& faults, std::size_t max_attempts = 8,
    std::uint64_t jitter_seed = 0);

}  // namespace hhc::sim
