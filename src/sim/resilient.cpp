#include "sim/resilient.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/disjoint.hpp"
#include "sim/network.hpp"

namespace hhc::sim {

namespace {

// Sends one packet per path at cycle 0 and runs them to completion.
NetworkSimulator send_at_zero(const core::HhcTopology& net,
                              std::span<const core::Path> paths,
                              const core::FaultModel& faults) {
  NetworkSimulator simulator{net};
  simulator.set_fault_model(faults);
  for (const auto& path : paths) simulator.inject(path, 0);
  simulator.run();
  return simulator;
}

}  // namespace

TransferOutcome serial_retry_transfer(const core::HhcTopology& net,
                                      core::Node s, core::Node t,
                                      const core::FaultModel& faults) {
  const auto container = core::node_disjoint_paths(net, s, t);
  TransferOutcome outcome;
  std::uint64_t clock = 0;
  for (const core::Path& path : container.paths) {
    ++outcome.attempts;
    const NetworkSimulator simulator = send_at_zero(net, {&path, 1}, faults);
    const Packet& packet = simulator.packets()[0];
    if (packet.delivered) {
      outcome.delivered = true;
      outcome.completion_cycles = clock + packet.completion_time;
      return outcome;
    }
    // Lost: the hops covered before the faulty node or link are wasted.
    outcome.wasted_transmissions += packet.hop;
    // The sender only learns of the loss by silence: charge a round-trip
    // worth of timeout before the next attempt.
    clock += 2 * (path.size() - 1);
  }
  outcome.completion_cycles = clock;
  return outcome;
}

std::uint64_t jittered_wait(std::uint64_t wait, util::Xoshiro256& rng) {
  if (wait == 0) return 0;
  return wait - rng.below(wait / 2 + 1);
}

TransferOutcome backoff_retry_transfer(const core::HhcTopology& net,
                                       core::Node s, core::Node t,
                                       const core::FaultModel& faults,
                                       std::size_t max_attempts,
                                       std::uint64_t jitter_seed) {
  const auto container = core::node_disjoint_paths(net, s, t);
  TransferOutcome outcome;
  util::Xoshiro256 jitter_rng{jitter_seed};
  std::uint64_t clock = 0;
  for (std::size_t k = 0; k < max_attempts; ++k) {
    const core::Path& path = container.paths[k % container.paths.size()];
    ++outcome.attempts;
    NetworkSimulator simulator{net};
    simulator.set_fault_model(faults);
    simulator.inject(path, clock);
    const auto report = simulator.run();
    if (report.delivered == 1) {
      outcome.delivered = true;
      outcome.completion_cycles = simulator.packets()[0].completion_time;
      return outcome;
    }
    outcome.wasted_transmissions += simulator.packets()[0].hop;
    // Loss is detected by a round-trip of silence; the wait doubles every
    // attempt so repeated losses back off instead of hammering an outage.
    // With a jitter seed, each wait is shortened by a seeded random slice
    // so a fleet of senders spreads its retries out (one draw per loss
    // keeps the whole schedule a pure function of the seed).
    const std::uint64_t round_trip = 2 * (path.size() - 1);
    std::uint64_t wait = round_trip << std::min<std::size_t>(k, 32);
    if (jitter_seed != 0) wait = jittered_wait(wait, jitter_rng);
    clock += wait;
  }
  outcome.completion_cycles = clock;
  return outcome;
}

TransferOutcome dispersal_transfer(const core::HhcTopology& net, core::Node s,
                                   core::Node t,
                                   const core::FaultModel& faults) {
  const auto container = core::node_disjoint_paths(net, s, t);
  const NetworkSimulator simulator = send_at_zero(net, container.paths, faults);

  TransferOutcome outcome;
  outcome.attempts = container.paths.size();
  std::vector<std::uint64_t> arrivals;
  for (const auto& p : simulator.packets()) {
    if (p.delivered) {
      arrivals.push_back(p.completion_time - p.inject_time);
    } else {
      outcome.wasted_transmissions += p.hop;
    }
  }
  const unsigned needed = net.m();  // any m of m+1 fragments reconstruct
  if (arrivals.size() >= needed) {
    std::sort(arrivals.begin(), arrivals.end());
    outcome.delivered = true;
    outcome.completion_cycles = arrivals[needed - 1];
  }
  return outcome;
}

TransferOutcome flooding_transfer(const core::HhcTopology& net, core::Node s,
                                  core::Node t,
                                  const core::FaultModel& faults) {
  const auto container = core::node_disjoint_paths(net, s, t);
  const NetworkSimulator simulator = send_at_zero(net, container.paths, faults);

  TransferOutcome outcome;
  outcome.attempts = container.paths.size();
  std::uint64_t best = 0;
  bool any = false;
  for (const auto& p : simulator.packets()) {
    if (p.delivered) {
      const std::uint64_t latency = p.completion_time - p.inject_time;
      if (!any || latency < best) best = latency;
      any = true;
      // Every copy beyond the first is overhead by definition.
      outcome.wasted_transmissions += p.route.size() - 1;
    } else {
      outcome.wasted_transmissions += p.hop;
    }
  }
  if (any) {
    outcome.delivered = true;
    outcome.completion_cycles = best;
    // The winning copy's hops are useful work, not waste.
    outcome.wasted_transmissions -= best;
  }
  return outcome;
}

}  // namespace hhc::sim
