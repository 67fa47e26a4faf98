#include <gtest/gtest.h>

#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/container_cache.hpp"
#include "core/routing.hpp"
#include "fault/adaptive_router.hpp"
#include "graph/adjacency_list.hpp"
#include "graph/bfs.hpp"

namespace hhc::fault {
namespace {

using core::FaultModel;
using core::HhcTopology;
using core::Node;
using core::Path;

// Independent reachability oracle: explicit survivor subgraph + graph BFS.
bool reachable_in_survivor(const HhcTopology& net, Node s, Node t,
                           const FaultModel& faults, std::uint64_t time = 0) {
  graph::AdjacencyList g{net.node_count()};
  for (Node v = 0; v < net.node_count(); ++v) {
    for (const Node u : net.neighbors(v)) {
      if (u > v && faults.edge_usable_at(v, u, time)) {
        g.add_edge(static_cast<graph::Vertex>(v),
                   static_cast<graph::Vertex>(u));
      }
    }
  }
  return !graph::bfs_shortest_path(g, static_cast<graph::Vertex>(s),
                                   static_cast<graph::Vertex>(t))
              .empty();
}

bool path_avoids_faults(const Path& path, const FaultModel& faults,
                        std::uint64_t time = 0) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!faults.edge_usable_at(path[i], path[i + 1], time)) return false;
  }
  return true;
}

TEST(AdaptiveRouter, FaultFreeIsGuaranteed) {
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  for (const auto& [s, t] : core::sample_pairs(net, 60, 3)) {
    const auto r = router.route(s, t, FaultModel{});
    EXPECT_EQ(r.level, query::DegradationLevel::kGuaranteed);
    EXPECT_FALSE(r.used_fallback);
    EXPECT_EQ(r.container_paths_blocked, 0u);
    EXPECT_TRUE(core::is_valid_path(net, r.primary(), s, t));
  }
}

TEST(AdaptiveRouter, UnderMNodeFaultsStaysGuaranteed) {
  // The paper's guarantee: any <= m node faults off the endpoints leave at
  // least one of the m+1 disjoint paths intact.
  for (unsigned m = 1; m <= 4; ++m) {
    const HhcTopology net{m};
    core::ContainerCache cache{net};
    const AdaptiveRouter router{cache};
    util::Xoshiro256 rng{101 + m};
    for (const auto& [s, t] : core::sample_pairs(net, 120, m)) {
      FaultModel::RandomSpec spec;
      spec.node_faults = m;
      const auto faults = FaultModel::random(net, spec, s, t, rng);
      const auto r = router.route(s, t, faults);
      ASSERT_EQ(r.level, query::DegradationLevel::kGuaranteed)
          << "m=" << m << " s=" << s << " t=" << t;
      EXPECT_TRUE(core::is_valid_path(net, r.primary(), s, t));
      EXPECT_TRUE(path_avoids_faults(r.primary(), faults));
    }
  }
}

// The container's verdict alone: no survivor-subgraph BFS runs.
query::RouteResult container_only(const AdaptiveRouter& router, Node s, Node t,
                                  const FaultModel& faults) {
  return router.route(query::PairQuery{.s = s, .t = t, .faults = &faults},
                      {.skip_fallback = true});
}

TEST(AdaptiveRouter, AdversarialFaultsOnNeighbors) {
  // Worst case: m of the m+1 source neighbors fail; the one container path
  // through the remaining neighbor must still get through.
  const HhcTopology net{3};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(5, 0b010);
  const Node t = net.encode(200, 0b101);
  const auto nbrs = net.neighbors(s);
  FaultModel faults;
  for (unsigned i = 0; i < net.m(); ++i) faults.fail_node(nbrs[i]);
  const auto r = container_only(router, s, t, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.level, query::DegradationLevel::kGuaranteed);
  EXPECT_EQ(r.container_paths_blocked, net.m());
  // The surviving path must leave via the external edge.
  EXPECT_EQ(r.primary()[1], net.external_neighbor(s));
}

TEST(AdaptiveRouter, ReportsBlockedCount) {
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  const auto container = cache.materialize(s, t);
  FaultModel faults;
  faults.fail_node(container.paths[0][1]);  // break exactly one path
  const auto r = container_only(router, s, t, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.container_paths_blocked, 1u);
}

TEST(AdaptiveRouter, PicksShortestSurvivingPath) {
  // Fault-free, every container path survives and the shortest one wins.
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(3, 1);
  const Node t = net.encode(12, 2);
  const auto container = cache.materialize(s, t);
  const auto r = container_only(router, s, t, FaultModel{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.primary().size() - 1, container.min_length());
}

TEST(AdaptiveRouter, CanFailBeyondGuarantee) {
  // Every neighbor of s faulty cuts every container path (and s itself
  // from the network): the router reports disconnection, not a bad path.
  const HhcTopology net{1};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(3, 1);
  FaultModel faults;
  for (const Node v : net.neighbors(s)) faults.fail_node(v);
  const auto r = router.route(s, t, faults);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.level, query::DegradationLevel::kDisconnected);
  EXPECT_EQ(r.container_paths_blocked, net.degree());
}

TEST(AdaptiveRouter, FallsBackWhenAllContainerPathsBlocked) {
  // Block one interior node on every container path: the container alone
  // has no answer here, but the survivor subgraph is still well connected.
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = cache.materialize(s, t);
  FaultModel faults;
  for (const auto& path : container.paths) {
    faults.fail_node(path[path.size() / 2]);
  }
  const auto r = router.route(s, t, faults);
  ASSERT_EQ(r.level, query::DegradationLevel::kBestEffort);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(r.container_paths_blocked, container.paths.size());
  EXPECT_TRUE(core::is_valid_path(net, r.primary(), s, t));
  EXPECT_TRUE(path_avoids_faults(r.primary(), faults));

  // The container-only verdict for the same cut is not authoritative.
  const auto alone =
      router.route(query::PairQuery{.s = s, .t = t, .faults = &faults},
                   {.skip_fallback = true});
  EXPECT_EQ(alone.outcome, query::RouteOutcome::kShed);
  EXPECT_FALSE(alone.used_fallback);
  EXPECT_TRUE(alone.paths.empty());
}

TEST(AdaptiveRouter, LinkFaultsAloneCanForceFallback) {
  // One dead link per container path defeats the node-disjoint guarantee
  // without a single node fault — exactly the regime the container's
  // argument does not cover and the fallback exists for.
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = cache.materialize(s, t);
  FaultModel faults;
  for (const auto& path : container.paths) {
    const std::size_t cut = path.size() / 2;
    faults.fail_link(path[cut], path[cut + 1]);
  }
  for (const core::ActiveFaults::Fact& fact : faults.snapshot().facts()) {
    EXPECT_NE(fact.a, fact.b);  // link facts only, no node fact
  }
  const auto r = router.route(s, t, faults);
  ASSERT_EQ(r.level, query::DegradationLevel::kBestEffort);
  EXPECT_TRUE(core::is_valid_path(net, r.primary(), s, t));
  EXPECT_TRUE(path_avoids_faults(r.primary(), faults));
}

TEST(AdaptiveRouter, ReportsDisconnectionInsteadOfSilentEmpty) {
  const HhcTopology net{1};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(3, 1);
  FaultModel faults;
  for (const Node v : net.neighbors(t)) faults.fail_node(v);
  const auto r = router.route(s, t, faults);
  EXPECT_EQ(r.level, query::DegradationLevel::kDisconnected);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.used_fallback);
  EXPECT_FALSE(reachable_in_survivor(net, s, t, faults));
}

TEST(AdaptiveRouter, FaultyEndpointIsDisconnectedNotAnError) {
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  FaultModel faults;
  faults.fail_node(0);
  EXPECT_EQ(router.route(0, 5, faults).level,
            query::DegradationLevel::kDisconnected);
  EXPECT_EQ(router.route(5, 0, faults).level,
            query::DegradationLevel::kDisconnected);
}

TEST(AdaptiveRouter, TrivialSelfRouteIsGuaranteed) {
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const auto r = router.route(9, 9, FaultModel{});
  EXPECT_EQ(r.level, query::DegradationLevel::kGuaranteed);
  EXPECT_EQ(r.primary(), Path{9});
}

TEST(AdaptiveRouter, TransientFaultOnlyBlocksDuringItsWindow) {
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = cache.materialize(s, t);
  FaultModel faults;
  faults.fail_node(container.paths[0][1], /*fail_time=*/5, /*repair_time=*/10);
  EXPECT_EQ(router.route(s, t, faults, 0).container_paths_blocked, 0u);
  EXPECT_EQ(router.route(s, t, faults, 7).container_paths_blocked, 1u);
  EXPECT_EQ(router.route(s, t, faults, 10).container_paths_blocked, 0u);
}

TEST(AdaptiveRouter, MatchesBfsReachabilityUnderRandomMixedFaults) {
  // The acceptance property: whenever the survivor subgraph connects s and
  // t the router must return a path (guaranteed or best-effort), and when
  // it does not, the router must report disconnection — never a silent
  // empty result while a path exists.
  util::Xoshiro256 rng{2024};
  std::size_t fallbacks = 0;
  std::size_t disconnections = 0;
  for (unsigned m = 1; m <= 2; ++m) {
    // m = 1 (8 nodes, degree 2) disconnects easily; m = 2 mostly survives
    // and exercises the fallback instead.
    const HhcTopology net{m};
    core::ContainerCache cache{net};
    const AdaptiveRouter router{cache};
    for (int trial = 0; trial < 300; ++trial) {
      const Node s = rng.below(net.node_count());
      Node t = rng.below(net.node_count());
      while (t == s) t = rng.below(net.node_count());
      FaultModel::RandomSpec spec;
      spec.node_faults = rng.below(net.m() + 2);
      spec.internal_link_faults = rng.below(net.m() + 2);
      spec.external_link_faults = rng.below(net.m() + 2);
      const auto faults = FaultModel::random(net, spec, s, t, rng);
      const auto r = router.route(s, t, faults);
      ASSERT_EQ(r.ok(), reachable_in_survivor(net, s, t, faults))
          << "m=" << m << " trial " << trial;
      if (r.ok()) {
        EXPECT_TRUE(core::is_valid_path(net, r.primary(), s, t));
        EXPECT_TRUE(path_avoids_faults(r.primary(), faults));
      } else {
        EXPECT_EQ(r.level, query::DegradationLevel::kDisconnected);
      }
      if (r.used_fallback && r.ok()) ++fallbacks;
      if (!r.ok()) ++disconnections;
    }
  }
  // The sweep must actually exercise both degraded regimes.
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(disconnections, 0u);
}

TEST(AdaptiveRouter, DegradationLevelNames) {
  EXPECT_STREQ(query::to_string(query::DegradationLevel::kGuaranteed),
               "guaranteed");
  EXPECT_STREQ(query::to_string(query::DegradationLevel::kBestEffort),
               "best-effort");
  EXPECT_STREQ(query::to_string(query::DegradationLevel::kDisconnected),
               "disconnected");
}

TEST(AdaptiveRouter, CutContainerAboveM4IsShedWithoutASweep) {
  // The survivor sweep is node-indexed and runs only at m <= 4. At m = 5
  // (2^37 nodes) a fully cut container answers as under skip_fallback:
  // outcome kShed, level kDisconnected, no sweep. A container with one
  // surviving path still delivers it.
  const HhcTopology net{5};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 3);
  const Node t = net.encode(0xDEADBEEF, 17);
  const auto container = cache.materialize(s, t);
  FaultModel cut;
  FaultModel one_left;
  for (std::size_t i = 0; i < container.paths.size(); ++i) {
    const Path& path = container.paths[i];
    cut.fail_node(path[path.size() / 2]);
    if (i > 0) one_left.fail_node(path[path.size() / 2]);
  }
  const auto shed = router.route(s, t, cut);
  EXPECT_EQ(shed.outcome, query::RouteOutcome::kShed);
  EXPECT_EQ(shed.level, query::DegradationLevel::kDisconnected);
  EXPECT_FALSE(shed.used_fallback);
  EXPECT_TRUE(shed.paths.empty());
  EXPECT_EQ(shed.container_paths_blocked, container.paths.size());

  const auto served = router.route(s, t, one_left);
  EXPECT_EQ(served.outcome, query::RouteOutcome::kOk);
  ASSERT_EQ(served.level, query::DegradationLevel::kGuaranteed);
  EXPECT_EQ(served.primary(), container.paths[0]);
  EXPECT_EQ(served.container_paths_blocked, container.paths.size() - 1);
}

TEST(AdaptiveRouter, PairQueryFormMatchesConvenienceForm) {
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  FaultModel faults;
  faults.fail_node(7);
  const auto a = router.route(3, 60, faults, /*time=*/2);
  const auto b = router.route(query::PairQuery{
      .s = 3, .t = 60, .faults = &faults, .time = 2});
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.container_paths_blocked, b.container_paths_blocked);
}

}  // namespace
}  // namespace hhc::fault
