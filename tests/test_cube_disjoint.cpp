#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cube/cube_disjoint.hpp"
#include "graph/path_utils.hpp"
#include "util/rng.hpp"

namespace hhc::cube {
namespace {

void check_container(const Hypercube& q, CubeNode s, CubeNode t,
                     std::size_t count) {
  const auto paths = disjoint_paths(q, s, t, count);
  ASSERT_EQ(paths.size(), count);
  const auto g = q.explicit_graph();
  std::vector<graph::VertexPath> vpaths;
  for (const auto& p : paths) {
    graph::VertexPath vp;
    for (const auto v : p) vp.push_back(static_cast<graph::Vertex>(v));
    ASSERT_TRUE(graph::validate_path_between(g, vp,
                                             static_cast<graph::Vertex>(s),
                                             static_cast<graph::Vertex>(t))
                    .ok);
    vpaths.push_back(std::move(vp));
  }
  const std::vector<graph::Vertex> shared{static_cast<graph::Vertex>(s),
                                          static_cast<graph::Vertex>(t)};
  EXPECT_TRUE(graph::validate_internally_disjoint(g, vpaths, shared).ok)
      << "s=" << s << " t=" << t;
}

TEST(CubeDisjoint, AllPairsQ3FullContainer) {
  const Hypercube q{3};
  for (CubeNode s = 0; s < 8; ++s) {
    for (CubeNode t = 0; t < 8; ++t) {
      if (s != t) check_container(q, s, t, 3);
    }
  }
}

TEST(CubeDisjoint, AllPairsQ4FullContainer) {
  const Hypercube q{4};
  for (CubeNode s = 0; s < 16; ++s) {
    for (CubeNode t = 0; t < 16; ++t) {
      if (s != t) check_container(q, s, t, 4);
    }
  }
}

TEST(CubeDisjoint, RandomPairsQ8) {
  const Hypercube q{8};
  util::Xoshiro256 rng{5};
  for (int trial = 0; trial < 50; ++trial) {
    const CubeNode s = rng.below(256);
    const CubeNode t = rng.below(256);
    if (s != t) check_container(q, s, t, 8);
  }
}

TEST(CubeDisjoint, RotationPathsHaveMinimalLength) {
  const Hypercube q{6};
  const CubeNode s = 0b000000;
  const CubeNode t = 0b111000;  // distance 3
  const auto paths = disjoint_paths(q, s, t, 6);
  // k = 3 rotations of length 3, then detours of length 5.
  int short_paths = 0;
  int long_paths = 0;
  for (const auto& p : paths) {
    if (p.size() - 1 == 3) ++short_paths;
    if (p.size() - 1 == 5) ++long_paths;
  }
  EXPECT_EQ(short_paths, 3);
  EXPECT_EQ(long_paths, 3);
}

TEST(CubeDisjoint, SequencesHaveDistinctFirstAndLastDimensions) {
  const Hypercube q{5};
  const auto seqs = disjoint_route_sequences(q, 0b00000, 0b00111, 5);
  std::set<unsigned> firsts;
  std::set<unsigned> lasts;
  for (const auto& s : seqs) {
    firsts.insert(s.front());
    lasts.insert(s.back());
  }
  EXPECT_EQ(firsts.size(), 5u);
  EXPECT_EQ(lasts.size(), 5u);
}

TEST(CubeDisjoint, PartialContainerRequestsFewerPaths) {
  const Hypercube q{7};
  const auto paths = disjoint_paths(q, 0, 0b1111111, 2);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(CubeDisjoint, RejectsTooManyPaths) {
  const Hypercube q{3};
  EXPECT_THROW((void)disjoint_paths(q, 0, 1, 4), std::invalid_argument);
}

TEST(CubeDisjoint, RejectsEqualEndpoints) {
  const Hypercube q{3};
  EXPECT_THROW((void)disjoint_paths(q, 2, 2, 1), std::invalid_argument);
}

// Parameterized dimension sweep: each n gets its own test cell so a
// regression localizes immediately.
class CubeContainerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CubeContainerSweep, RandomContainersAreDisjoint) {
  const unsigned n = GetParam();
  const Hypercube q{n};
  util::Xoshiro256 rng{n * 31u};
  for (int trial = 0; trial < 25; ++trial) {
    const CubeNode s = rng.below(q.node_count());
    const CubeNode t = rng.below(q.node_count());
    if (s != t) check_container(q, s, t, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensions, CubeContainerSweep,
                         ::testing::Range(2u, 10u),
                         [](const ::testing::TestParamInfo<unsigned>& param_info) {
                           std::string name{"n"};
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(CubeDisjoint, RealizeRouteTracesDimensions) {
  const Hypercube q{4};
  const auto path = realize_route(q, 0b0000, {1, 3, 1});
  const CubePath expected{0b0000, 0b0010, 0b1010, 0b1000};
  EXPECT_EQ(path, expected);
}

}  // namespace
}  // namespace hhc::cube
