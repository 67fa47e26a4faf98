#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cube/folded.hpp"
#include "graph/bfs.hpp"
#include "graph/path_utils.hpp"
#include "graph/vertex_disjoint.hpp"
#include "util/rng.hpp"

namespace hhc::cube {
namespace {

void check_container(const FoldedHypercube& fq, CubeNode s, CubeNode t) {
  const auto paths = fq.disjoint_paths(s, t);
  ASSERT_EQ(paths.size(), fq.degree()) << "s=" << s << " t=" << t;
  const auto g = fq.explicit_graph();
  std::vector<graph::VertexPath> vpaths;
  for (const auto& p : paths) {
    graph::VertexPath vp;
    for (const auto v : p) vp.push_back(static_cast<graph::Vertex>(v));
    ASSERT_TRUE(graph::validate_path_between(g, vp,
                                             static_cast<graph::Vertex>(s),
                                             static_cast<graph::Vertex>(t))
                    .ok)
        << "n=" << fq.dimension() << " s=" << s << " t=" << t;
    vpaths.push_back(std::move(vp));
  }
  const std::vector<graph::Vertex> shared{static_cast<graph::Vertex>(s),
                                          static_cast<graph::Vertex>(t)};
  EXPECT_TRUE(graph::validate_internally_disjoint(g, vpaths, shared).ok)
      << "n=" << fq.dimension() << " s=" << s << " t=" << t;
}

TEST(FoldedHypercube, RejectsBadDimension) {
  EXPECT_THROW(FoldedHypercube{1}, std::invalid_argument);
  EXPECT_THROW(FoldedHypercube{64}, std::invalid_argument);
}

TEST(FoldedHypercube, BasicStructure) {
  const FoldedHypercube fq{3};
  EXPECT_EQ(fq.node_count(), 8u);
  EXPECT_EQ(fq.degree(), 4u);
  EXPECT_EQ(fq.complement(0b000), 0b111u);
  EXPECT_EQ(fq.neighbors(0b000).size(), 4u);
  EXPECT_TRUE(fq.is_edge(0b000, 0b111));
  EXPECT_TRUE(fq.is_edge(0b000, 0b010));
  EXPECT_FALSE(fq.is_edge(0b000, 0b011));
}

TEST(FoldedHypercube, Fq2IsComplete) {
  const FoldedHypercube fq{2};
  const auto g = fq.explicit_graph();
  EXPECT_EQ(g.edge_count(), 6u);  // K_4
  EXPECT_EQ(graph::diameter(g), 1u);
}

TEST(FoldedHypercube, DiameterMatchesFormula) {
  for (unsigned n = 2; n <= 9; ++n) {
    const FoldedHypercube fq{n};
    EXPECT_EQ(graph::diameter(fq.explicit_graph()), fq.theoretical_diameter())
        << "n=" << n;
  }
}

TEST(FoldedHypercube, DistanceMatchesBfs) {
  const FoldedHypercube fq{6};
  const auto g = fq.explicit_graph();
  const auto dist = graph::bfs_distances(g, 0);
  for (CubeNode v = 0; v < fq.node_count(); ++v) {
    EXPECT_EQ(fq.distance(0, v), dist[static_cast<graph::Vertex>(v)])
        << "v=" << v;
  }
}

TEST(FoldedHypercube, ShortestPathIsValidAndMinimal) {
  const FoldedHypercube fq{7};
  util::Xoshiro256 rng{3};
  for (int trial = 0; trial < 200; ++trial) {
    const CubeNode s = rng.below(fq.node_count());
    const CubeNode t = rng.below(fq.node_count());
    if (s == t) continue;
    const auto p = fq.shortest_path(s, t);
    EXPECT_EQ(p.size() - 1, fq.distance(s, t));
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(fq.is_edge(p[i], p[i + 1]));
    }
  }
}

TEST(FoldedHypercube, ConnectivityIsDegree) {
  for (unsigned n = 2; n <= 6; ++n) {
    const FoldedHypercube fq{n};
    const auto g = fq.explicit_graph();
    util::Xoshiro256 rng{n};
    for (int trial = 0; trial < 20; ++trial) {
      const auto s = static_cast<graph::Vertex>(rng.below(fq.node_count()));
      const auto t = static_cast<graph::Vertex>(rng.below(fq.node_count()));
      if (s == t) continue;
      EXPECT_EQ(graph::vertex_connectivity_between(g, s, t), fq.degree());
    }
  }
}

TEST(FoldedDisjoint, AllPairsN2ToN5) {
  for (unsigned n = 2; n <= 5; ++n) {
    const FoldedHypercube fq{n};
    for (CubeNode s = 0; s < fq.node_count(); ++s) {
      for (CubeNode t = 0; t < fq.node_count(); ++t) {
        if (s != t) check_container(fq, s, t);
      }
    }
  }
}

TEST(FoldedDisjoint, RandomPairsN8) {
  const FoldedHypercube fq{8};
  util::Xoshiro256 rng{17};
  for (int trial = 0; trial < 60; ++trial) {
    const CubeNode s = rng.below(fq.node_count());
    const CubeNode t = rng.below(fq.node_count());
    if (s != t) check_container(fq, s, t);
  }
}

TEST(FoldedDisjoint, ComplementPairGetsDirectEdgePath) {
  const FoldedHypercube fq{5};
  const auto paths = fq.disjoint_paths(0b00000, 0b11111);
  bool direct = false;
  for (const auto& p : paths) direct |= (p.size() == 2);
  EXPECT_TRUE(direct);
  EXPECT_EQ(paths.size(), 6u);
}

TEST(FoldedDisjoint, AlmostComplementPairUsesTwoShortMixedPaths) {
  const FoldedHypercube fq{4};
  // k = n-1 = 3: s and t agree only in dimension 2.
  const CubeNode s = 0b0000;
  const CubeNode t = 0b1011;
  const auto paths = fq.disjoint_paths(s, t);
  std::size_t two_hop = 0;
  for (const auto& p : paths) {
    if (p.size() == 3) ++two_hop;
  }
  EXPECT_GE(two_hop, 2u);  // comp+e and e+comp
}

class FoldedContainerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FoldedContainerSweep, RandomContainersAreDisjoint) {
  const unsigned n = GetParam();
  const FoldedHypercube fq{n};
  util::Xoshiro256 rng{n * 17u};
  for (int trial = 0; trial < 20; ++trial) {
    const CubeNode s = rng.below(fq.node_count());
    const CubeNode t = rng.below(fq.node_count());
    if (s != t) check_container(fq, s, t);
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensions, FoldedContainerSweep,
                         ::testing::Range(2u, 9u),
                         [](const ::testing::TestParamInfo<unsigned>& param_info) {
                           std::string name{"n"};
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(FoldedDisjoint, MaxLengthBounded) {
  // Every constructed path has length <= k + 2 <= n + 2.
  const FoldedHypercube fq{9};
  util::Xoshiro256 rng{23};
  for (int trial = 0; trial < 100; ++trial) {
    const CubeNode s = rng.below(fq.node_count());
    const CubeNode t = rng.below(fq.node_count());
    if (s == t) continue;
    for (const auto& p : fq.disjoint_paths(s, t)) {
      EXPECT_LE(p.size() - 1, fq.dimension() + 2);
    }
  }
}

}  // namespace
}  // namespace hhc::cube
