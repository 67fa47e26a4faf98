// One-to-all broadcast demo: build the two-level binomial schedule, verify
// it, and print the round-by-round wavefront.
//
//   ./broadcast_demo [--m 2] [--root 0] [--show-rounds 6]
#include <cstdio>
#include <exception>

#include "core/broadcast.hpp"
#include "core/io.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) try {
  using namespace hhc;

  util::Options opts{argc, argv};
  opts.describe("m", "cluster dimension m in [1,4] (default 2)")
      .describe("root", "broadcast root node (default 0)")
      .describe("show-rounds", "rounds to print in detail (default 6)");
  if (opts.help_requested("Two-level binomial one-to-all broadcast on HHC."))
    return 0;
  opts.reject_unknown();

  const auto m = static_cast<unsigned>(opts.get_int("m", 2));
  const core::HhcTopology net{m};
  const auto root = static_cast<core::Node>(opts.get_int("root", 0));
  const std::size_t show = opts.get_count("show-rounds", 6);

  const auto schedule = core::broadcast_schedule(net, root);
  if (!core::verify_broadcast_schedule(net, schedule, root)) {
    std::fprintf(stderr, "schedule verification FAILED\n");
    return 1;
  }

  std::printf("HHC(%u): broadcasting from %s to all %llu nodes\n",
              net.address_bits(), core::format_node(net, root).c_str(),
              static_cast<unsigned long long>(net.node_count()));
  std::printf("schedule: %zu rounds (lower bound %u), %zu transmissions "
              "(= N-1), verified\n\n",
              schedule.round_count(), core::broadcast_lower_bound(net),
              schedule.message_count());

  std::size_t informed = 1;
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    informed += schedule.rounds[r].size();
    if (r < show) {
      std::printf("round %2zu (%3zu sends, %llu informed):", r,
                  schedule.rounds[r].size(),
                  static_cast<unsigned long long>(informed));
      const std::size_t preview = std::min<std::size_t>(
          schedule.rounds[r].size(), 4);
      for (std::size_t i = 0; i < preview; ++i) {
        const auto& [from, to] = schedule.rounds[r][i];
        std::printf(" %s=>%s", core::format_node(net, from).c_str(),
                    core::format_node(net, to).c_str());
      }
      if (schedule.rounds[r].size() > preview) std::printf(" ...");
      std::printf("\n");
    } else if (r == show) {
      std::printf("... (%zu more rounds)\n", schedule.rounds.size() - show);
    }
  }
  std::printf("\nall %llu nodes informed after %zu rounds\n",
              static_cast<unsigned long long>(net.node_count()),
              schedule.round_count());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
