#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/maxflow_paths.hpp"
#include "baseline/single_path.hpp"
#include "core/metrics.hpp"
#include "core/routing.hpp"

namespace hhc::baseline {
namespace {

using core::FaultModel;
using core::HhcTopology;
using core::Node;

TEST(FixedSingleRoute, SucceedsWithoutFaults) {
  const HhcTopology net{2};
  for (const auto& [s, t] : core::sample_pairs(net, 50, 1)) {
    const auto p = fixed_single_route(net, s, t, FaultModel{});
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(core::is_valid_path(net, p, s, t));
  }
}

TEST(FixedSingleRoute, FailsWhenRouteBlocked) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  const auto p = core::route(net, s, t);
  ASSERT_GE(p.size(), 3u);
  FaultModel faults;
  faults.fail_node(p[1]);
  EXPECT_TRUE(fixed_single_route(net, s, t, faults).empty());
}

TEST(FixedSingleRoute, UnrelatedFaultsDoNotBlock) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  const auto p = core::route(net, s, t);
  FaultModel faults;
  // Pick a node not on the route.
  for (Node v = 0; v < net.node_count(); ++v) {
    if (std::find(p.begin(), p.end(), v) == p.end()) {
      faults.fail_node(v);
      break;
    }
  }
  EXPECT_FALSE(fixed_single_route(net, s, t, faults).empty());
}

TEST(AdaptiveBfsRoute, FindsDetourAroundFaults) {
  const HhcTopology net{2};
  const MaxflowBaseline base{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  // Block the fixed route's second node; the oracle should still succeed.
  const auto fixed = core::route(net, s, t);
  FaultModel faults;
  faults.fail_node(fixed[1]);
  const auto p = adaptive_bfs_route(base.explicit_graph(), s, t, faults);
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(core::is_valid_path(net, p, s, t));
  for (const Node v : p) EXPECT_FALSE(faults.node_faulty_at(v));
}

TEST(AdaptiveBfsRoute, FailsOnlyWhenDisconnected) {
  const HhcTopology net{1};
  const MaxflowBaseline base{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(3, 1);
  FaultModel faults;
  for (const Node v : net.neighbors(s)) faults.fail_node(v);
  EXPECT_TRUE(adaptive_bfs_route(base.explicit_graph(), s, t, faults).empty());
}

TEST(AdaptiveBfsRoute, HandlesFaultyEndpoints) {
  const HhcTopology net{1};
  const MaxflowBaseline base{net};
  FaultModel faults;
  faults.fail_node(0);
  EXPECT_TRUE(adaptive_bfs_route(base.explicit_graph(), 0, 3, faults).empty());
  EXPECT_TRUE(adaptive_bfs_route(base.explicit_graph(), 3, 0, faults).empty());
}

TEST(AdaptiveBfsRoute, ReturnsShortestDetour) {
  const HhcTopology net{2};
  const MaxflowBaseline base{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  const auto free_path = adaptive_bfs_route(base.explicit_graph(), s, t, {});
  const auto exact = core::bfs_shortest_path(net, s, t);
  EXPECT_EQ(free_path.size(), exact.size());
}

}  // namespace
}  // namespace hhc::baseline
