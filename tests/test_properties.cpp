// Property-based correctness harness for the disjoint-path construction.
//
// ~10k randomized cases over m in {2, 3}, driven by one seeded Xoshiro256
// stream (override with HHC_PROPERTY_SEED to replay a failure; every assert
// carries the seed and case index via SCOPED_TRACE). Each case asserts the
// paper's container properties directly, rather than trusting the library's
// own verifier alone:
//
//   P1  exactly m+1 paths (the connectivity of HHC(n));
//   P2  every path starts at s and ends at t;
//   P3  paths are pairwise internally node-disjoint (only s, t shared);
//   P4  every hop is an edge of the network;
//   P5  gray-cycle containers respect the length bound 2^(m+1) + 2m + 3.
//
// On P5: the issue's nominal bound 2^m + m + 1 is below the network
// diameter 2^(m+1) (HhcTopology::theoretical_diameter), so no construction
// can meet it; the asserted bound is the measured-and-argued one — the
// longest route is a detour (<= 2 external hops + two cluster walks of
// <= 2^m - 1 ... bounded by 2^(m+1) - 2 internal hops) stretched by at most
// one fan hop at each endpoint plus the gateway-walk slack, giving
// 2^(m+1) + 2m + 3. Measured maxima: 7 (m=1), 13 (m=2), 25 (m=3) against
// bounds 9, 15, 25. The kAscending ablation ordering violates even that
// (max 28 at m=3 — its non-cyclic rotations stack walks), so ascending
// cases assert P1-P4 only.
//
// Both entry points are exercised: cases alternate between the legacy
// copying API and the scratch overload (materialized), so the
// harness would catch a property violation introduced in either path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_set>

#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/scratch.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

std::uint64_t harness_seed() {
  if (const char* env = std::getenv("HHC_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xA11CE5EED;  // fixed default: runs are reproducible by default
}

bool nodes_adjacent(const HhcTopology& net, Node u, Node v) {
  for (const Node w : net.neighbors(u)) {
    if (w == v) return true;
  }
  return false;
}

void check_properties(const HhcTopology& net, Node s, Node t,
                      const DisjointPathSet& set, bool assert_length_bound) {
  const unsigned m = net.m();

  // P1: cardinality equals the connectivity m + 1.
  ASSERT_EQ(set.paths.size(), m + 1);

  std::unordered_set<Node> internals;
  for (const Path& path : set.paths) {
    // P2: endpoints.
    ASSERT_GE(path.size(), 2u);
    ASSERT_EQ(path.front(), s);
    ASSERT_EQ(path.back(), t);

    // P4: every hop is an edge.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      ASSERT_TRUE(nodes_adjacent(net, path[i], path[i + 1]))
          << "hop " << i << ": " << path[i] << " -> " << path[i + 1];
    }

    // P3: internal nodes distinct within the path and across paths, and
    // never equal to an endpoint.
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      ASSERT_NE(path[i], s);
      ASSERT_NE(path[i], t);
      ASSERT_TRUE(internals.insert(path[i]).second)
          << "node " << path[i] << " appears on two paths (or twice)";
    }

    // P5: length bound (gray-cycle ordering only; see header comment).
    if (assert_length_bound) {
      const std::size_t bound = (std::size_t{1} << (m + 1)) + 2 * m + 3;
      ASSERT_LE(path.size() - 1, bound);
    }
  }
}

void run_cases(unsigned m, std::size_t cases, DimensionOrdering ordering) {
  const std::uint64_t seed = harness_seed();
  const HhcTopology net{m};
  const ConstructionOptions options{.ordering = ordering};
  const bool bound = ordering == DimensionOrdering::kGrayCycle;
  util::Xoshiro256 rng{seed ^ (std::uint64_t{m} << 32) ^
                       static_cast<std::uint64_t>(ordering)};
  auto& scratch = tls_construction_scratch();

  for (std::size_t c = 0; c < cases; ++c) {
    const Node s = rng.below(net.node_count());
    Node t = rng.below(net.node_count());
    if (s == t) t = s ^ 1;  // flip the low position bit: always in range

    std::ostringstream trace;
    trace << "seed=0x" << std::hex << seed << std::dec << " m=" << m
          << " case=" << c << " s=" << s << " t=" << t
          << " (rerun with HHC_PROPERTY_SEED)";
    SCOPED_TRACE(trace.str());

    // Alternate entry points: even cases copy, odd cases go through the
    // scratch overload and materialize the borrowed views.
    if (c % 2 == 0) {
      check_properties(net, s, t, node_disjoint_paths(net, s, t, options),
                       bound);
    } else {
      const DisjointPathSetRef ref =
          node_disjoint_paths(net, s, t, options, scratch);
      check_properties(net, s, t, ref.materialize(), bound);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DisjointProperties, RandomCasesM2Gray) {
  run_cases(2, 3500, DimensionOrdering::kGrayCycle);
}

TEST(DisjointProperties, RandomCasesM3Gray) {
  run_cases(3, 3500, DimensionOrdering::kGrayCycle);
}

TEST(DisjointProperties, RandomCasesM2Ascending) {
  run_cases(2, 1500, DimensionOrdering::kAscending);
}

TEST(DisjointProperties, RandomCasesM3Ascending) {
  run_cases(3, 1500, DimensionOrdering::kAscending);
}

// The bound in P5 is tight at m=3 (a measured container reaches exactly
// 25 = 2^4 + 6 + 3): if this ever fails, the bound was tightened by an
// algorithm change and the harness comment should be updated, not loosened.
TEST(DisjointProperties, LengthBoundIsAttainedM3) {
  const HhcTopology net{3};
  std::size_t longest = 0;
  for (const auto& [s, t] : sample_pairs(net, 2000, 0xBEEF)) {
    longest = std::max(longest, node_disjoint_paths(net, s, t).max_length());
  }
  EXPECT_GE(longest, 20u);  // sampled maximum sits near the bound
  EXPECT_LE(longest, 25u);
}

}  // namespace
}  // namespace hhc::core
