// Experiment F2 — routing success rate under random node faults.
//
// Sweeps the number of faulty nodes f and measures the fraction of sampled
// (s, t) pairs each router still connects:
//   disjoint : the m+1-path container (paper's router), as the router's
//              ContainerCache serves it: the orbit image PathService
//              answers with
//   fixed    : one deterministic route, no diversity
//   oracle   : BFS on the fault-free subgraph (upper bound; m <= 3)
// The paper's guarantee shows as a flat 100% disjoint-router line for
// f <= m, degrading gracefully beyond, while the fixed router decays
// immediately.
#include <iostream>

#include "baseline/maxflow_paths.hpp"
#include "baseline/single_path.hpp"
#include "core/fault_model.hpp"
#include "core/metrics.hpp"
#include "fault/adaptive_router.hpp"
#include "util/table.hpp"

int main() {
  using namespace hhc;
  constexpr std::size_t kTrials = 600;

  for (unsigned m = 2; m <= 3; ++m) {
    const core::HhcTopology net{m};
    const baseline::MaxflowBaseline base{net};
    core::ContainerCache cache{net};
    const fault::AdaptiveRouter router{cache};

    util::Table table{{"faults f", "disjoint %", "fixed-single %", "oracle %",
                       "guarantee"}};
    for (std::size_t f = 0; f <= 3 * m; ++f) {
      std::size_t ok_disjoint = 0;
      std::size_t ok_fixed = 0;
      std::size_t ok_oracle = 0;
      util::Xoshiro256 rng{9000 + f};
      const auto pairs = core::sample_pairs(net, kTrials, 40 + f);
      for (const auto& [s, t] : pairs) {
        const auto faults =
            core::FaultModel::random(net, {.node_faults = f}, s, t, rng);
        // Container verdict only: the BFS fallback is the oracle column.
        if (router
                .route(query::PairQuery{.s = s, .t = t, .faults = &faults},
                       {.skip_fallback = true})
                .ok()) {
          ++ok_disjoint;
        }
        if (!baseline::fixed_single_route(net, s, t, faults).empty()) {
          ++ok_fixed;
        }
        if (!baseline::adaptive_bfs_route(base.explicit_graph(), s, t, faults)
                 .empty()) {
          ++ok_oracle;
        }
      }
      const auto pct = [&](std::size_t okay) {
        return 100.0 * static_cast<double>(okay) / kTrials;
      };
      table.row()
          .add(f)
          .add(pct(ok_disjoint), 1)
          .add(pct(ok_fixed), 1)
          .add(pct(ok_oracle), 1)
          .add(f <= m ? "100% guaranteed" : "best effort");
    }
    table.print(std::cout, "F2 (m=" + std::to_string(m) +
                               "): routing success rate vs faulty nodes, " +
                               std::to_string(kTrials) + " trials per row");
    std::cout << '\n';
  }
  std::cout << "Expected shape: disjoint-path routing is exact-100% for "
               "f <= m (the paper's\nguarantee) and tracks the oracle "
               "closely beyond; fixed single-path routing\ndecays as soon "
               "as f > 0.\n";
  return 0;
}
