// Parallel information dispersal: split a message into m+1 erasure-coded
// fragments, push them through the flit simulator over the node-disjoint
// container — optionally cutting one path — and reassemble at the sink.
//
//   ./parallel_dispersal [--m 3] [--bytes 4096] [--cut-path 1]
#include <cstdio>
#include <exception>
#include <numeric>
#include <vector>

#include "core/dispersal.hpp"
#include "sim/network.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) try {
  using namespace hhc;

  util::Options opts{argc, argv};
  opts.describe("m", "cluster dimension m in [1,5] (default 3)")
      .describe("bytes", "message size in bytes (default 4096)")
      .describe("cut-path", "index of a path to cut, or -1 for none (default -1)");
  if (opts.help_requested(
          "Erasure-coded parallel transmission over node-disjoint paths."))
    return 0;
  opts.reject_unknown();

  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  const std::size_t bytes = opts.get_count("bytes", 4096);
  const auto cut = opts.get_int("cut-path", -1);

  const core::Node s = net.encode(1, 1 % net.cluster_size());
  const core::Node t = net.encode(net.cluster_count() / 2 + 3, 0);

  std::vector<std::uint8_t> message(bytes);
  std::iota(message.begin(), message.end(), std::uint8_t{0});

  const auto plan = core::disperse(net, s, t, message);
  std::printf("message: %zu bytes -> %zu fragments of %zu bytes "
              "(%u data + 1 parity)\n",
              bytes, plan.fragments.size(), plan.block_size, m);
  for (const auto& f : plan.fragments) {
    std::printf("  fragment %zu rides a %zu-hop path%s\n", f.index,
                f.path.size() - 1, f.index == m ? " (parity)" : "");
  }

  sim::NetworkSimulator simulator{net};
  if (cut >= 0 && static_cast<std::size_t>(cut) < plan.fragments.size()) {
    simulator.schedule_fault(
        plan.fragments[static_cast<std::size_t>(cut)].path[1], /*time=*/0);
    std::printf("cutting path %lld at its second node\n",
                static_cast<long long>(cut));
  }
  for (const auto& f : plan.fragments) simulator.inject(f.path, 0);
  const auto report = simulator.run();
  std::printf("\nsimulated %llu cycles: %zu delivered, %zu lost "
              "(p50 latency %llu, max %llu)\n",
              static_cast<unsigned long long>(report.cycles), report.delivered,
              report.lost, static_cast<unsigned long long>(report.latency.p50),
              static_cast<unsigned long long>(report.latency.max));

  std::vector<core::Fragment> received;
  for (std::size_t i = 0; i < plan.fragments.size(); ++i) {
    if (simulator.packets()[i].delivered) received.push_back(plan.fragments[i]);
  }
  if (received.size() < m) {
    std::printf("FAILED: only %zu fragments arrived, need %u\n",
                received.size(), m);
    return 1;
  }
  const auto out =
      core::reassemble(m, plan.block_size, plan.message_size, received);
  std::printf("reassembled %zu bytes from %zu fragments: %s\n", out.size(),
              received.size(), out == message ? "INTACT" : "CORRUPT");
  std::printf("serial transfer would need ~%zu fragment-cycles; parallel "
              "completion took %zu\n",
              (plan.fragments.size() - 1) * plan.parallel_completion_steps(),
              plan.parallel_completion_steps());
  return out == message ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
