// Experiment F7 — local-knowledge routing vs the global container router.
//
// The container router (AdaptiveRouter without its BFS fallback) sees the
// whole fault set and scans the container its ContainerCache serves, the
// orbit image PathService answers with; the local router only probes
// neighbor liveness and backtracks. Both inherit the f <= m guarantee from connectivity; this
// table prices the missing knowledge in path length and wasted expansions.
#include <iostream>

#include "core/fault_model.hpp"
#include "core/local_routing.hpp"
#include "core/metrics.hpp"
#include "fault/adaptive_router.hpp"
#include "sim/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace hhc;
  const core::HhcTopology net{3};
  core::ContainerCache cache{net};
  const fault::AdaptiveRouter router{cache};
  constexpr std::size_t kTrials = 500;

  util::Table table{{"faults f", "local ok %", "global ok %", "local p50 len",
                     "global p50 len", "local p95 len", "backtracks/msg"}};
  // Sparse faults barely touch either router on 2048 nodes; the sweep goes
  // deep into massive-failure territory (up to 25% of the network dead)
  // where the difference in knowledge models shows.
  for (const std::size_t f : {0u, 3u, 32u, 128u, 512u}) {
    std::size_t local_ok = 0;
    std::size_t global_ok = 0;
    double backtracks = 0;
    std::vector<std::uint64_t> local_len;
    std::vector<std::uint64_t> global_len;
    util::Xoshiro256 rng{650 + f};
    for (const auto& [s, t] : core::sample_pairs(net, kTrials, 60 + f)) {
      const auto faults =
          core::FaultModel::random(net, {.node_faults = f}, s, t, rng);
      const auto local = core::local_fault_route(net, s, t, faults);
      if (local.ok()) {
        ++local_ok;
        local_len.push_back(local.path.size() - 1);
      }
      backtracks += static_cast<double>(local.backtracks);
      const auto global =
          router.route(query::PairQuery{.s = s, .t = t, .faults = &faults},
                       {.skip_fallback = true});
      if (global.ok()) {
        ++global_ok;
        global_len.push_back(global.primary().size() - 1);
      }
    }
    const auto local_sum = sim::summarize(std::move(local_len));
    const auto global_sum = sim::summarize(std::move(global_len));
    table.row()
        .add(f)
        .add(100.0 * static_cast<double>(local_ok) / kTrials, 1)
        .add(100.0 * static_cast<double>(global_ok) / kTrials, 1)
        .add(local_sum.p50)
        .add(global_sum.p50)
        .add(local_sum.p95)
        .add(backtracks / kTrials, 2);
  }
  table.print(std::cout,
              "F7 (m=3): local-knowledge DFS routing vs global disjoint-"
              "container routing, " + std::to_string(kTrials) + " trials/row");
  std::cout << "\nExpected shape: both are 100% for f <= m; the local router "
               "stays successful even\nbeyond (it explores exhaustively) at "
               "the cost of longer paths and backtracking,\nwhile the global "
               "router fails once all m+1 fixed paths are cut.\n";
  return 0;
}
