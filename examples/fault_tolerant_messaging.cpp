// Fault-tolerant messaging: keep routing between two nodes while random
// nodes fail, using the disjoint-path container as the fail-over set and
// the adaptive router's BFS fallback beyond it. Routing goes through the
// unified query::PathService, so every round is a fault-aware PairQuery and
// the run ends with the service's own telemetry (cache hit rate, latency
// percentiles) — the same snapshot a production deployment would export.
//
//   ./fault_tolerant_messaging [--m 3] [--faults 3] [--rounds 20] [--seed 1]
//
// Each round injects a fresh random fault pattern and reports which of the
// m+1 paths survive and how the message got through:
//   guaranteed   — a container path survived (certain for faults <= m)
//   best-effort  — all m+1 paths were cut but the BFS fallback found a
//                  detour through the survivor subgraph
//   disconnected — no fault-free path exists at all; nothing could deliver
#include <cstdio>
#include <exception>
#include <iostream>

#include "core/fault_model.hpp"
#include "core/metrics.hpp"
#include "query/path_service.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace hhc;

  util::Options opts{argc, argv};
  opts.describe("m", "cluster dimension m in [1,5] (default 3)")
      .describe("faults", "faulty nodes per round (default m)")
      .describe("rounds", "number of fault rounds (default 20)")
      .describe("seed", "RNG seed (default 1)");
  if (opts.help_requested(
          "Route around random node faults via the disjoint-path container."))
    return 0;
  opts.reject_unknown();

  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  const std::size_t faults_per_round = opts.get_count("faults", m);
  const std::size_t rounds = opts.get_count("rounds", 20);
  util::Xoshiro256 rng{static_cast<std::uint64_t>(opts.get_int("seed", 1))};

  const core::Node s = net.encode(0, 0);
  const core::Node t =
      net.encode(net.cluster_count() - 1, net.cluster_size() - 1);
  query::PathService service{net};

  std::printf("HHC(%u): routing %llu -> %llu with %zu random faults/round\n",
              net.address_bits(), static_cast<unsigned long long>(s),
              static_cast<unsigned long long>(t), faults_per_round);
  std::printf("container: %u node-disjoint paths; guarantee holds for "
              "faults <= %u\n\n",
              net.degree(), m);

  std::size_t delivered = 0;
  std::size_t fallbacks = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto faults = core::FaultModel::random(
        net, {.node_faults = faults_per_round}, s, t, rng);
    const auto result = service.answer(
        query::PairQuery{.s = s, .t = t, .faults = &faults});
    if (result.ok()) {
      ++delivered;
      if (result.used_fallback) ++fallbacks;
      std::printf("round %2zu: %zu/%u paths blocked -> delivered over %zu "
                  "hops (%s)\n",
                  round, result.container_paths_blocked, net.degree(),
                  result.primary().size() - 1, to_string(result.level));
    } else {
      std::printf("round %2zu: all %u paths blocked and no detour exists "
                  "-> %s\n",
                  round, net.degree(), to_string(result.level));
    }
  }
  std::printf("\ndelivered %zu/%zu rounds (%zu via BFS fallback)", delivered,
              rounds, fallbacks);
  if (faults_per_round <= m) std::printf(" (guaranteed: faults <= m)");
  std::printf("\n\n");

  // The rounds all query the same (s, t): one construction, then cache hits.
  service.stats().print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
