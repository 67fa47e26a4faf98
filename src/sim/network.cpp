#include "sim/network.hpp"

#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/routing.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/bitops.hpp"

namespace hhc::sim {

void NetworkSimulator::set_fault_model(core::FaultModel model) {
  faults_ = std::move(model);
}

void NetworkSimulator::schedule_fault(core::Node node, std::uint64_t time,
                                      std::uint64_t repair) {
  if (!net_.contains(node)) {
    throw std::invalid_argument("schedule_fault: node out of range");
  }
  faults_.fail_node(node, time, repair);
}

void NetworkSimulator::schedule_link_fault(core::Node u, core::Node v,
                                           std::uint64_t time,
                                           std::uint64_t repair) {
  if (!net_.is_edge(u, v)) {
    throw std::invalid_argument("schedule_link_fault: not an HHC edge");
  }
  faults_.fail_link(u, v, time, repair);
}

std::uint64_t NetworkSimulator::inject(core::Path route, std::uint64_t time) {
  if (route.empty()) {
    throw std::invalid_argument("NetworkSimulator::inject: empty route");
  }
  if (!core::is_valid_path(net_, route, route.front(), route.back())) {
    throw std::invalid_argument("NetworkSimulator::inject: invalid route");
  }
  Packet p;
  p.id = packets_.size();
  p.route = std::move(route);
  p.inject_time = time;
  packets_.push_back(std::move(p));
  return packets_.back().id;
}

SimReport NetworkSimulator::run(std::uint64_t max_cycles) {
  obs::TraceSpan trace_span{obs::stages::kSimRun};
  // Directed link key encoded as (from, output port): port = internal
  // dimension for cluster edges, m for the external edge. Exact and
  // collision-free for every m (from * (m+1) + port < 2^37 * 6 < 2^40).
  const unsigned ports = net_.m() + 1;
  const auto link_key = [&](core::Node from, core::Node to) {
    const unsigned port =
        net_.cluster_of(from) == net_.cluster_of(to)
            ? bits::lowest_set(net_.position_of(from) ^ net_.position_of(to))
            : net_.m();
    return from * ports + port;
  };

  std::size_t retired = 0;
  std::vector<std::uint64_t> latencies;
  std::size_t lost = 0;

  // Retire packets that are dead on arrival (faulty source or s == t).
  for (Packet& p : packets_) {
    if (faults_.node_faulty_at(p.route.front(), p.inject_time)) {
      p.lost = true;
      ++lost;
      ++retired;
    } else if (p.route.size() == 1) {
      p.delivered = true;
      p.completion_time = p.inject_time;
      latencies.push_back(0);
      ++retired;
    }
  }

  std::uint64_t cycle = 0;
  for (; retired < packets_.size() && cycle < max_cycles; ++cycle) {
    std::unordered_map<std::uint64_t, std::uint64_t> link_taken;
    for (Packet& p : packets_) {
      if (p.delivered || p.lost || p.inject_time > cycle) continue;
      const core::Node cur = p.route[p.hop];
      const core::Node next = p.route[p.hop + 1];
      if (faults_.node_faulty_at(next, cycle) ||
          faults_.link_faulty_at(cur, next, cycle)) {
        p.lost = true;
        ++lost;
        ++retired;
        continue;
      }
      const auto [it, granted] = link_taken.emplace(link_key(cur, next), p.id);
      if (!granted) continue;  // link busy this cycle; wait
      ++p.hop;
      if (p.hop + 1 == p.route.size()) {
        p.delivered = true;
        p.completion_time = cycle + 1;
        latencies.push_back(p.completion_time - p.inject_time);
        ++retired;
      }
    }
  }

  SimReport report;
  report.cycles = cycle;
  report.lost = lost;
  report.delivered = latencies.size();
  report.stranded = packets_.size() - retired;
  report.latency = summarize(std::move(latencies));
  return report;
}

}  // namespace hhc::sim
