#include <gtest/gtest.h>

#include <algorithm>

#include "core/local_routing.hpp"
#include "core/metrics.hpp"
#include "core/routing.hpp"

namespace hhc::core {
namespace {

TEST(LocalRouting, HeuristicIsZeroIffEqual) {
  const HhcTopology net{3};
  EXPECT_EQ(distance_heuristic(net, 42, 42), 0u);
  EXPECT_GT(distance_heuristic(net, 42, 43), 0u);
}

TEST(LocalRouting, HeuristicNeverExceedsDistance) {
  // Admissibility on a small instance: heuristic <= BFS distance.
  const HhcTopology net{2};
  for (Node s = 0; s < net.node_count(); s += 3) {
    const auto dist = bfs_distances(net, s);
    for (Node t = 0; t < net.node_count(); ++t) {
      EXPECT_LE(distance_heuristic(net, t, s), dist[t]) << s << "->" << t;
    }
  }
}

TEST(LocalRouting, TrivialAndFaultFree) {
  const HhcTopology net{2};
  const auto self = local_fault_route(net, 7, 7, FaultModel{});
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.path, Path{7});

  for (const auto& [s, t] : sample_pairs(net, 100, 3)) {
    const auto r = local_fault_route(net, s, t, FaultModel{});
    ASSERT_TRUE(r.ok()) << s << "->" << t;
    EXPECT_TRUE(is_valid_path(net, r.path, s, t));
  }
}

TEST(LocalRouting, GreedyIsShortWithoutFaults) {
  // With no faults the greedy heuristic descends monotonically most of the
  // time; require at most 2x the constructive route length.
  const HhcTopology net{3};
  for (const auto& [s, t] : sample_pairs(net, 200, 5)) {
    const auto local = local_fault_route(net, s, t, FaultModel{});
    ASSERT_TRUE(local.ok());
    const auto constructive = route(net, s, t);
    EXPECT_LE(local.path.size(), 2 * constructive.size())
        << s << "->" << t;
  }
}

TEST(LocalRouting, GuaranteedUnderMFaults) {
  // f <= m cannot disconnect the (m+1)-connected HHC, and the DFS explores
  // exhaustively, so it must succeed.
  for (unsigned m = 1; m <= 4; ++m) {
    const HhcTopology net{m};
    util::Xoshiro256 rng{44 + m};
    for (const auto& [s, t] : sample_pairs(net, 100, 10 + m)) {
      const auto faults =
          FaultModel::random(net, {.node_faults = m}, s, t, rng);
      const auto r = local_fault_route(net, s, t, faults);
      ASSERT_TRUE(r.ok()) << "m=" << m << " s=" << s << " t=" << t;
      EXPECT_TRUE(is_valid_path(net, r.path, s, t));
      for (const Node v : r.path) EXPECT_FALSE(faults.node_faulty_at(v));
    }
  }
}

TEST(LocalRouting, BacktracksAroundBlockedNeighborhood) {
  const HhcTopology net{3};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(255, 7);
  // Block the m most-promising neighbors of s, forcing detours.
  auto nbrs = net.neighbors(s);
  std::sort(nbrs.begin(), nbrs.end(), [&](Node a, Node b) {
    return distance_heuristic(net, a, t) < distance_heuristic(net, b, t);
  });
  FaultModel faults;
  for (unsigned i = 0; i < net.m(); ++i) faults.fail_node(nbrs[i]);
  const auto r = local_fault_route(net, s, t, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path[1], nbrs.back());  // only the worst neighbor survives
}

TEST(LocalRouting, FailsWhenDisconnected) {
  const HhcTopology net{1};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(3, 1);
  FaultModel faults;
  for (const Node v : net.neighbors(s)) faults.fail_node(v);
  const auto r = local_fault_route(net, s, t, faults);
  EXPECT_FALSE(r.ok());
}

TEST(LocalRouting, StepBudgetRespected) {
  const HhcTopology net{4};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(net.cluster_count() - 1, net.cluster_size() - 1);
  const auto r = local_fault_route(net, s, t, FaultModel{}, /*max_steps=*/3);
  EXPECT_FALSE(r.ok());
  EXPECT_LE(r.steps, 3u);
}

TEST(LocalRouting, ScratchOverloadMatchesLegacy) {
  // Identical walk, not merely an equivalent one: the scratch overload must
  // reproduce the legacy path AND the step/backtrack telemetry, with and
  // without faults and under a step budget.
  LocalRouteScratch scratch;
  for (unsigned m = 2; m <= 3; ++m) {
    const HhcTopology net{m};
    util::Xoshiro256 rng{0x10CA1 + m};
    for (const auto& [s, t] : sample_pairs(net, 120, 55 + m)) {
      const auto faults =
          FaultModel::random(net, {.node_faults = m}, s, t, rng);
      const auto legacy = local_fault_route(net, s, t, faults);
      const auto view = local_fault_route(net, s, t, faults, 0, scratch);
      ASSERT_EQ(view.ok(), legacy.ok()) << "m=" << m << " " << s << "->" << t;
      ASSERT_TRUE(std::equal(view.path.begin(), view.path.end(),
                             legacy.path.begin(), legacy.path.end()));
      EXPECT_EQ(view.steps, legacy.steps);
      EXPECT_EQ(view.backtracks, legacy.backtracks);
    }
  }
  // Budget-capped failure agrees too.
  const HhcTopology net{4};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(net.cluster_count() - 1, net.cluster_size() - 1);
  const auto capped = local_fault_route(net, s, t, FaultModel{}, 3, scratch);
  EXPECT_FALSE(capped.ok());
  EXPECT_LE(capped.steps, 3u);
}

TEST(LocalRouting, RejectsFaultyEndpoints) {
  const HhcTopology net{2};
  FaultModel faults;
  faults.fail_node(5);
  EXPECT_THROW((void)local_fault_route(net, 5, 9, faults),
               std::invalid_argument);
  EXPECT_THROW((void)local_fault_route(net, 9, 5, faults),
               std::invalid_argument);
}

TEST(LocalRouting, WorksAtImplicitScaleM5) {
  const HhcTopology net{5};
  util::Xoshiro256 rng{77};
  for (const auto& [s, t] : sample_pairs(net, 30, 21)) {
    const auto faults =
        FaultModel::random(net, {.node_faults = net.m()}, s, t, rng);
    const auto r = local_fault_route(net, s, t, faults);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(is_valid_path(net, r.path, s, t));
  }
}

}  // namespace
}  // namespace hhc::core
