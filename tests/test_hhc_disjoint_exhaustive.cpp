// Exhaustive and statistical verification of the disjoint-path construction.
//
// m = 1 and m = 2 are verified over EVERY ordered node pair (8 and 64
// nodes); m = 3 over every pair from a fixed source plus a random sample;
// m = 4 and m = 5 over random samples. Each container is checked for
// validity, disjointness, and cardinality m+1; for small m the cardinality
// is also cross-checked against the independent max-flow baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "baseline/maxflow_paths.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/scratch.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

void check_pair(const HhcTopology& net, Node s, Node t,
                DimensionOrdering ordering = DimensionOrdering::kGrayCycle) {
  const ConstructionOptions options{.ordering = ordering};
  const auto set = node_disjoint_paths(net, s, t, options);
  std::string why;
  ASSERT_TRUE(verify_disjoint_path_set(net, set, s, t, &why))
      << "m=" << net.m() << " s=" << s << " t=" << t << ": " << why;

  // Differential: the scratch overload must agree node for
  // node with the copying entry point on every pair this suite touches.
  const DisjointPathSetRef ref =
      node_disjoint_paths(net, s, t, options, tls_construction_scratch());
  ASSERT_EQ(ref.paths.size(), set.paths.size());
  for (std::size_t i = 0; i < ref.paths.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(set.paths[i], ref.paths[i]))
        << "m=" << net.m() << " s=" << s << " t=" << t << " path " << i
        << ": scratch overload diverged from copying API";
  }
}

TEST(HhcDisjointExhaustive, AllPairsM1) {
  const HhcTopology net{1};
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s != t) check_pair(net, s, t);
    }
  }
}

TEST(HhcDisjointExhaustive, AllPairsM2) {
  const HhcTopology net{2};
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s != t) check_pair(net, s, t);
    }
  }
}

TEST(HhcDisjointExhaustive, AllPairsM2AscendingOrdering) {
  // Disjointness must hold for ANY cyclic ordering of the differing
  // dimensions; the ablation ordering gets the same exhaustive treatment.
  const HhcTopology net{2};
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s != t) check_pair(net, s, t, DimensionOrdering::kAscending);
    }
  }
}

TEST(HhcDisjointExhaustive, RandomPairsAscendingOrderingM3M4M5) {
  for (unsigned m = 3; m <= 5; ++m) {
    const HhcTopology net{m};
    for (const auto& [s, t] : sample_pairs(net, 400, 19 + m)) {
      check_pair(net, s, t, DimensionOrdering::kAscending);
    }
  }
}

TEST(HhcDisjointExhaustive, AllPairsM2BalancedSelection) {
  const HhcTopology net{2};
  const ConstructionOptions options{DimensionOrdering::kGrayCycle,
                                    RouteSelectionPolicy::kBalanced};
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      const auto set = node_disjoint_paths(net, s, t, options);
      std::string why;
      ASSERT_TRUE(verify_disjoint_path_set(net, set, s, t, &why))
          << "s=" << s << " t=" << t << ": " << why;
    }
  }
}

TEST(HhcDisjointExhaustive, BalancedSelectionShorterInAggregate) {
  // The balanced policy minimizes *estimated* lengths over the free slots.
  // The estimate ignores how endpoint fans stretch (fan paths may be
  // longer than the straight-line walk), so a per-pair inequality does not
  // hold — but the aggregate must: over a sample, balanced containers are
  // no longer on average, and per pair never longer by more than the fan
  // slack 2m.
  for (unsigned m = 3; m <= 5; ++m) {
    const HhcTopology net{m};
    double canon_total = 0;
    double balanced_total = 0;
    for (const auto& [s, t] : sample_pairs(net, 300, 77 + m)) {
      const auto canon = node_disjoint_paths(net, s, t);
      const auto balanced = node_disjoint_paths(
          net, s, t,
          ConstructionOptions{DimensionOrdering::kGrayCycle,
                              RouteSelectionPolicy::kBalanced});
      std::string why;
      ASSERT_TRUE(verify_disjoint_path_set(net, balanced, s, t, &why)) << why;
      EXPECT_LE(balanced.max_length(), canon.max_length() + 2 * m)
          << "m=" << m << " s=" << s << " t=" << t;
      canon_total += static_cast<double>(canon.max_length());
      balanced_total += static_cast<double>(balanced.max_length());
    }
    EXPECT_LE(balanced_total, canon_total) << "m=" << m;
  }
}

TEST(HhcDisjointExhaustive, AllTargetsFromFixedSourcesM3) {
  const HhcTopology net{3};
  // Sources covering distinct gateway positions and cluster patterns.
  const Node sources[] = {net.encode(0, 0), net.encode(0b10110101, 0b101),
                          net.encode(0b11111111, 0b111)};
  for (const Node s : sources) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s != t) check_pair(net, s, t);
    }
  }
}

TEST(HhcDisjointExhaustive, RandomPairsM4) {
  const HhcTopology net{4};
  for (const auto& [s, t] : sample_pairs(net, 3000, /*seed=*/7)) {
    check_pair(net, s, t);
  }
}

TEST(HhcDisjointExhaustive, RandomPairsM5) {
  const HhcTopology net{5};  // 2^37 nodes: implicit-only regime
  for (const auto& [s, t] : sample_pairs(net, 1000, /*seed=*/11)) {
    check_pair(net, s, t);
  }
}

TEST(HhcDisjointExhaustive, CountMatchesMaxflowConnectivityM2) {
  const HhcTopology net{2};
  const baseline::MaxflowBaseline exact{net};
  util::Xoshiro256 rng{123};
  for (int trial = 0; trial < 200; ++trial) {
    const Node s = rng.below(net.node_count());
    const Node t = rng.below(net.node_count());
    if (s == t) continue;
    const auto constructed = node_disjoint_paths(net, s, t);
    EXPECT_EQ(constructed.paths.size(), exact.connectivity(s, t))
        << "s=" << s << " t=" << t;
  }
}

TEST(HhcDisjointExhaustive, CountMatchesMaxflowConnectivityM3) {
  const HhcTopology net{3};
  const baseline::MaxflowBaseline exact{net};
  util::Xoshiro256 rng{321};
  for (int trial = 0; trial < 50; ++trial) {
    const Node s = rng.below(net.node_count());
    const Node t = rng.below(net.node_count());
    if (s == t) continue;
    EXPECT_EQ(node_disjoint_paths(net, s, t).paths.size(),
              exact.connectivity(s, t));
  }
}

// Parameterized sweep: every (m, seed) cell runs an independent sample, so
// a regression in one branch of the case analysis shows up as a specific
// failing cell rather than a diffuse failure.
class DisjointSweep : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(DisjointSweep, RandomSampleIsDisjoint) {
  const auto [m, seed] = GetParam();
  const HhcTopology net{m};
  for (const auto& [s, t] :
       sample_pairs(net, 150, static_cast<std::uint64_t>(seed))) {
    check_pair(net, s, t);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScales, DisjointSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<DisjointSweep::ParamType>& param_info) {
      std::string name{"m"};
      name += std::to_string(std::get<0>(param_info.param));
      name += "_seed";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

}  // namespace
}  // namespace hhc::core
