// End-to-end scenarios crossing every module boundary: construct disjoint
// paths, disperse a message over them, push it through the simulator under
// faults, and reassemble — the full pipeline the paper's construction
// enables.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "baseline/maxflow_paths.hpp"
#include "baseline/single_path.hpp"
#include "core/dispersal.hpp"
#include "core/fault_model.hpp"
#include "core/local_routing.hpp"
#include "core/metrics.hpp"
#include "core/routing.hpp"
#include "fault/adaptive_router.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"

namespace hhc {
namespace {

using core::HhcTopology;
using core::Node;

TEST(Integration, DispersalThroughSimulatorWithOnePathCut) {
  const HhcTopology net{3};
  const Node s = net.encode(11, 0b001);
  const Node t = net.encode(222, 0b110);

  std::vector<std::uint8_t> message(257);
  std::iota(message.begin(), message.end(), std::uint8_t{0});
  const auto plan = core::disperse(net, s, t, message);

  // Cut one fragment's path at its second node.
  core::FaultModel faults;
  faults.fail_node(plan.fragments[1].path[1]);

  sim::NetworkSimulator simulator{net};
  simulator.set_fault_model(faults);
  for (const auto& f : plan.fragments) simulator.inject(f.path, 0);
  const auto report = simulator.run();

  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(report.delivered, plan.fragments.size() - 1);

  // Reassemble from the delivered fragments only.
  std::vector<core::Fragment> received;
  for (std::size_t i = 0; i < plan.fragments.size(); ++i) {
    if (simulator.packets()[i].delivered) received.push_back(plan.fragments[i]);
  }
  const auto out =
      core::reassemble(net.m(), plan.block_size, plan.message_size, received);
  EXPECT_EQ(out, message);
}

TEST(Integration, FaultRoutingBeatsFixedSinglePathUnderFaults) {
  // Statistical comparison on m=2: with exactly m faults the disjoint-path
  // router succeeds always; the fixed single-path router must fail at
  // least sometimes across the sample.
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const fault::AdaptiveRouter router{cache};
  util::Xoshiro256 rng{2024};
  std::size_t single_failures = 0;
  const auto pairs = core::sample_pairs(net, 300, 8);
  for (const auto& [s, t] : pairs) {
    const auto faults =
        core::FaultModel::random(net, {.node_faults = net.m()}, s, t, rng);
    const auto multi = router.route(
        query::PairQuery{.s = s, .t = t, .faults = &faults},
        {.skip_fallback = true});
    ASSERT_TRUE(multi.ok());
    if (baseline::fixed_single_route(net, s, t, faults).empty()) {
      ++single_failures;
    }
  }
  EXPECT_GT(single_failures, 0u);
}

TEST(Integration, LinkFaultOnRouteIsHonouredBySinglePathRouters) {
  // A dead link leaves both of its endpoints up, so only a router that
  // checks every hop's edge sees it. One link is cut on each router's
  // fault-free path: the fixed route fails, the local DFS and the BFS
  // oracle step around every cut.
  const HhcTopology net{2};
  const baseline::MaxflowBaseline base{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  const core::FaultModel none;
  const core::Path fault_free[] = {
      core::route(net, s, t),
      core::local_fault_route(net, s, t, none).path,
      baseline::adaptive_bfs_route(base.explicit_graph(), s, t, none)};
  core::FaultModel faults;
  for (const core::Path& path : fault_free) {
    ASSERT_GE(path.size(), 3u);
    faults.fail_link(path[1], path[2]);
  }
  for (const core::ActiveFaults::Fact& fact : faults.snapshot().facts()) {
    ASSERT_NE(fact.a, fact.b);  // link facts only, no node fact
  }
  const auto crosses_cut = [&](const core::Path& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!faults.edge_usable_at(path[i], path[i + 1])) return true;
    }
    return false;
  };

  EXPECT_TRUE(baseline::fixed_single_route(net, s, t, faults).empty());
  const auto local = core::local_fault_route(net, s, t, faults);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(core::is_valid_path(net, local.path, s, t));
  EXPECT_FALSE(crosses_cut(local.path));
  const auto oracle =
      baseline::adaptive_bfs_route(base.explicit_graph(), s, t, faults);
  ASSERT_FALSE(oracle.empty());
  EXPECT_TRUE(core::is_valid_path(net, oracle, s, t));
  EXPECT_FALSE(crosses_cut(oracle));
}

TEST(Integration, ConstructiveContainerCloseToOptimalLongest) {
  // The max-flow baseline can pick globally shorter path systems; the
  // constructive container must stay within the additive O(m) envelope of
  // the optimal longest member.
  const HhcTopology net{2};
  const baseline::MaxflowBaseline exact{net};
  for (const auto& [s, t] : core::sample_pairs(net, 80, 77)) {
    const auto ours = core::node_disjoint_paths(net, s, t);
    const auto best = exact.disjoint_paths(s, t);
    EXPECT_LE(ours.max_length(),
              best.max_length() + net.cluster_dimensions() + 3 * net.m())
        << "s=" << s << " t=" << t;
  }
}

TEST(Integration, PermutationWorkloadDeliversEverythingFaultFree) {
  const HhcTopology net{3};
  sim::NetworkSimulator simulator{net};
  const auto flows = sim::permutation_traffic(net, 200, 55);
  for (const auto& f : flows) {
    simulator.inject(core::route(net, f.s, f.t), f.inject_time);
  }
  const auto report = simulator.run();
  EXPECT_EQ(report.delivered, flows.size());
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.stranded, 0u);
}

TEST(Integration, WideDiameterSampleBoundedByDiameterPlusMargin) {
  // Empirical wide-diameter check on m=2: the longest container member
  // over every node pair must stay within diameter + 2m + 2.
  const HhcTopology net{2};
  const unsigned diameter = core::exact_diameter(net);
  std::size_t worst = 0;
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      worst = std::max(worst,
                       core::node_disjoint_paths(net, s, t).max_length());
    }
  }
  EXPECT_LE(worst, diameter + 2 * net.m() + 2);
  EXPECT_GE(worst, diameter);  // a container cannot beat the diameter
}

TEST(Integration, BatchParallelConstructionOverAllScales) {
  util::ThreadPool pool{4};
  for (unsigned m = 1; m <= 5; ++m) {
    const HhcTopology net{m};
    const auto pairs = core::sample_pairs(net, 200, m * 13);
    const auto measures = core::measure_containers(net, pairs, &pool);
    ASSERT_EQ(measures.size(), pairs.size());
    for (const auto& meas : measures) {
      EXPECT_GT(meas.longest, 0u);
      EXPECT_LE(meas.shortest, meas.longest);
    }
  }
}

}  // namespace
}  // namespace hhc
