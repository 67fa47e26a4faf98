// Experiment F5 — end-to-end transfer strategies under faults.
//
// Compares the three resilient-transfer protocols built on the disjoint
// container (serial retry with timeouts, erasure-coded dispersal, full
// flooding) across a fault sweep: completion probability, completion
// cycles, and bandwidth overhead (wasted hop-transmissions).
#include <iostream>

#include "core/metrics.hpp"
#include "sim/resilient.hpp"
#include "sim/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace hhc;
  const core::HhcTopology net{3};
  constexpr std::size_t kMessages = 400;

  util::Table table{{"faults f", "strategy", "ok %", "p50 cycles",
                     "p95 cycles", "wasted hops/msg"}};

  for (std::size_t f = 0; f <= 2 * net.m(); f += 3) {
    struct Acc {
      const char* name;
      sim::TransferOutcome (*run)(const core::HhcTopology&, core::Node,
                                  core::Node, const core::FaultModel&);
      std::size_t ok = 0;
      double wasted = 0;
      std::vector<std::uint64_t> cycles;
    };
    Acc accs[3] = {{"serial-retry", &sim::serial_retry_transfer, 0, 0.0, {}},
                   {"dispersal", &sim::dispersal_transfer, 0, 0.0, {}},
                   {"flooding", &sim::flooding_transfer, 0, 0.0, {}}};

    util::Xoshiro256 rng{811 + f};
    const auto pairs = core::sample_pairs(net, kMessages, 4000 + f);
    for (const auto& [s, t] : pairs) {
      const auto faults =
          core::FaultModel::random(net, {.node_faults = f}, s, t, rng);
      for (auto& acc : accs) {
        const auto outcome = acc.run(net, s, t, faults);
        if (outcome.delivered) {
          ++acc.ok;
          acc.cycles.push_back(outcome.completion_cycles);
        }
        acc.wasted += static_cast<double>(outcome.wasted_transmissions);
      }
    }
    for (auto& acc : accs) {
      const auto summary = sim::summarize(std::move(acc.cycles));
      table.row()
          .add(f)
          .add(acc.name)
          .add(100.0 * static_cast<double>(acc.ok) / kMessages, 1)
          .add(summary.p50)
          .add(summary.p95)
          .add(acc.wasted / kMessages, 2);
    }
  }
  table.print(std::cout,
              "F5 (m=3): end-to-end transfer strategies over the disjoint "
              "container, " + std::to_string(kMessages) + " messages per cell");
  std::cout << "\nExpected shape: serial retry degrades in latency as faults "
               "rise (timeouts);\ndispersal keeps one-shot latency at ~zero "
               "extra bandwidth; flooding buys the\nfastest completion for "
               "m x bandwidth.\n";
  return 0;
}
