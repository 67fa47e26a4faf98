// Synchronous packet-level network simulator over the HHC.
//
// Model: time advances in unit cycles; every directed link carries at most
// one packet per cycle; contention is resolved by packet id (older packet
// first, deterministic). Packets follow precomputed source routes, which is
// how both the paper-style disjoint-path transmission and the single-path
// baseline are exercised under identical conditions. A packet whose next
// hop is a faulty node — or whose next link is down — is lost. Faults come
// from a core::FaultModel, so nodes *and* links can fail at a scheduled
// cycle and be repaired at a later one; traffic injected after the repair
// passes. This replaces the original evaluation testbed with a
// deterministic, machine-independent equivalent.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "sim/stats.hpp"

namespace hhc::sim {

struct Packet {
  std::uint64_t id = 0;
  core::Path route;               // node sequence including both endpoints
  std::uint64_t inject_time = 0;  // cycle at which the packet enters
  std::size_t hop = 0;            // current index into route
  bool delivered = false;
  bool lost = false;
  std::uint64_t completion_time = 0;  // valid when delivered
};

struct SimReport {
  std::uint64_t cycles = 0;      // cycles simulated
  std::size_t delivered = 0;
  std::size_t lost = 0;
  std::size_t stranded = 0;      // still in flight when the horizon hit
  Summary latency;               // over delivered packets
};

class NetworkSimulator {
 public:
  explicit NetworkSimulator(const core::HhcTopology& net) : net_{net} {}

  /// Replaces the fault state with `model` (node, link and transient
  /// faults alike).
  void set_fault_model(core::FaultModel model);

  /// Schedules `node` to fail at the start of `time` and come back at
  /// `repair` (never, by default): packets attempting to enter it during
  /// the outage are lost; traffic before and after passes.
  void schedule_fault(core::Node node, std::uint64_t time,
                      std::uint64_t repair = core::kNeverRepaired);

  /// Link outage during [time, repair) (repair defaults to never): packets
  /// crossing {u, v} in that window are lost, both endpoints stay usable.
  void schedule_link_fault(core::Node u, core::Node v, std::uint64_t time = 0,
                           std::uint64_t repair = core::kNeverRepaired);

  /// Queues a packet with a precomputed route (validated against the
  /// topology); returns its id. Routes of length 0 deliver instantly.
  std::uint64_t inject(core::Path route, std::uint64_t time);

  /// Runs until all packets retire or `max_cycles` elapse.
  SimReport run(std::uint64_t max_cycles = 1u << 20);

  [[nodiscard]] const std::vector<Packet>& packets() const noexcept {
    return packets_;
  }

 private:
  // Held by reference like every other consumer of the topology; the
  // caller keeps the HhcTopology alive for the simulator's lifetime.
  const core::HhcTopology& net_;
  core::FaultModel faults_;
  std::vector<Packet> packets_;
};

}  // namespace hhc::sim
