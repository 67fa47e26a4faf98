#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/routing.hpp"

namespace hhc::core {
namespace {

TEST(HhcRouting, TrivialRoute) {
  const HhcTopology net{2};
  const auto p = route(net, 5, 5);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 5u);
}

TEST(HhcRouting, SameClusterRouteIsHammingShort) {
  const HhcTopology net{3};
  const Node s = net.encode(9, 0b000);
  const Node t = net.encode(9, 0b110);
  const auto p = route(net, s, t);
  EXPECT_TRUE(is_valid_path(net, p, s, t));
  EXPECT_EQ(p.size() - 1, 2u);
}

TEST(HhcRouting, CrossClusterRouteIsValid) {
  for (unsigned m = 1; m <= 5; ++m) {
    const HhcTopology net{m};
    const Node s = net.encode(0, 0);
    const Node t = net.encode(net.cluster_count() - 1, net.cluster_size() - 1);
    const auto p = route(net, s, t);
    EXPECT_TRUE(is_valid_path(net, p, s, t)) << "m=" << m;
  }
}

TEST(HhcRouting, RouteWithinLengthBound) {
  // Constructive bound: 2^m + k + 2m edges is a generous envelope.
  for (unsigned m = 2; m <= 5; ++m) {
    const HhcTopology net{m};
    for (const auto& [s, t] : sample_pairs(net, 300, /*seed=*/3)) {
      const auto p = route(net, s, t);
      ASSERT_TRUE(is_valid_path(net, p, s, t));
      const auto k = static_cast<std::size_t>(
          bits::popcount(net.cluster_of(s) ^ net.cluster_of(t)));
      EXPECT_LE(p.size() - 1, net.cluster_dimensions() + k + 2 * m)
          << "m=" << m;
    }
  }
}

TEST(HhcRouting, RouteMatchesBfsOnAdjacentNodes) {
  const HhcTopology net{2};
  for (Node v = 0; v < net.node_count(); ++v) {
    for (const Node u : net.neighbors(v)) {
      EXPECT_EQ(route(net, v, u).size(), 2u) << v << "->" << u;
    }
  }
}

TEST(HhcRouting, RouteNearOptimalOnSmallNetworks) {
  // The constructive route must stay within a small additive margin of the
  // exact BFS distance (it is not always optimal, but close).
  const HhcTopology net{2};
  for (Node s = 0; s < net.node_count(); s += 3) {
    const auto dist = bfs_distances(net, s);
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      const auto p = route(net, s, t);
      ASSERT_TRUE(is_valid_path(net, p, s, t));
      EXPECT_LE(p.size() - 1, dist[t] + 4u) << "s=" << s << " t=" << t;
    }
  }
}

TEST(HhcRouting, GrayOrderedDimensionsCoverXorMask) {
  const HhcTopology net{3};
  const Node s = net.encode(0b00111100, 1);
  const Node t = net.encode(0b11000011, 2);
  const auto dims =
      differing_x_dimensions(net, s, t, DimensionOrdering::kGrayCycle);
  std::uint64_t acc = 0;
  for (const unsigned d : dims) acc |= (1ull << d);
  EXPECT_EQ(acc, net.cluster_of(s) ^ net.cluster_of(t));
  EXPECT_EQ(dims.size(), 8u);
}

TEST(HhcRouting, RouteLengthMatchesRealizedRoute) {
  // route_length() must predict route()'s size exactly — the local router
  // and the balanced selection policy both rely on it.
  for (unsigned m = 1; m <= 5; ++m) {
    const HhcTopology net{m};
    for (const auto& [s, t] : sample_pairs(net, 200, 31 + m)) {
      EXPECT_EQ(route_length(net, s, t), route(net, s, t).size() - 1)
          << "m=" << m << " s=" << s << " t=" << t;
    }
    EXPECT_EQ(route_length(net, 5, 5), 0u);
  }
}

TEST(HhcRouting, RouteLengthSameCluster) {
  const HhcTopology net{3};
  const Node s = net.encode(4, 0b000);
  const Node t = net.encode(4, 0b111);
  EXPECT_EQ(route_length(net, s, t), 3u);
}

TEST(HhcRouting, RealizeClusterRouteValidatesInput) {
  const HhcTopology net{2};
  const std::vector<std::uint64_t> exit_walk{0};
  const std::vector<unsigned> dims{1};
  const std::vector<std::uint64_t> entry_walk{1};
  // exit walk must end at the first gateway (position 1, not 0).
  EXPECT_THROW((void)realize_cluster_route(net, 0, exit_walk, dims, entry_walk),
               std::invalid_argument);
}

TEST(HhcRouting, IsValidPathRejectsBadPaths) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(0, 1);
  EXPECT_FALSE(is_valid_path(net, {}, s, t));
  EXPECT_FALSE(is_valid_path(net, {s}, s, t));
  EXPECT_TRUE(is_valid_path(net, {s, t}, s, t));
  EXPECT_FALSE(is_valid_path(net, {s, s, t}, s, t));
  EXPECT_FALSE(is_valid_path(net, {s, net.encode(5, 3)}, s, net.encode(5, 3)));
}

}  // namespace
}  // namespace hhc::core
