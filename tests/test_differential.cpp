// Differential regression suite: the scratch-backed construction against
// recorded pre-rework snapshots and against the max-flow baseline.
//
// The allocation-free hot path (ConstructionScratch writing into one reused
// nodes + offsets buffer) was
// required to be *bit-identical* to the construction that preceded it, not
// merely "also correct". The snapshot hashes below were recorded from the
// pre-rework implementation (FNV-1a over every container: path count, then
// per path its node count and nodes, little-endian byte order); the suite
// recomputes them through the scratch overload, so ANY behavioral drift in
// route selection, tie-breaking, fan assignment, or walk realization shows
// up as a one-line hash mismatch. Coverage: every ordered pair at m = 1 and
// m = 2 under all three option sets, plus 2000 sampled pairs at m = 3 and
// m = 4 (seed 0xD1FF + m, the seed the snapshots were recorded with —
// changing it invalidates the constants). The same pins are also checked on
// one scratch whose first query built an m = 5 container, so every smaller
// container is written into a buffer with room to spare.
//
// A hash can only say "something changed"; the deep-equality sweep pins the
// two live entry points (copying API vs scratch + materialize) node-for-node
// so a mismatch points at the diverging pair. The max-flow cross-check then
// ties the scratch path's cardinality to an independent algorithm entirely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "baseline/maxflow_paths.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/scratch.hpp"

namespace hhc::core {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Snapshot {
  DimensionOrdering ordering;
  RouteSelectionPolicy selection;
  std::uint64_t expected;
};

// Hashes one scratch-built container into the running digest.
void hash_pair(const HhcTopology& net, Node s, Node t,
               const ConstructionOptions& options, ConstructionScratch& scratch,
               Fnv1a& fnv) {
  const DisjointPathSetRef set =
      node_disjoint_paths(net, s, t, options, scratch);
  fnv.mix(set.paths.size());
  for (const PathRef path : set.paths) {
    fnv.mix(path.size());
    for (const Node v : path) fnv.mix(v);
  }
}

void check_exhaustive_snapshot(unsigned m, const Snapshot& snap,
                               ConstructionScratch& scratch) {
  const HhcTopology net{m};
  const ConstructionOptions options{snap.ordering, snap.selection};
  Fnv1a fnv;
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s != t) hash_pair(net, s, t, options, scratch, fnv);
    }
  }
  EXPECT_EQ(fnv.h, snap.expected)
      << "m=" << m << ": construction drifted from pre-rework snapshot";
}

void check_sampled_snapshot(unsigned m, const Snapshot& snap,
                            ConstructionScratch& scratch) {
  const HhcTopology net{m};
  const ConstructionOptions options{snap.ordering, snap.selection};
  Fnv1a fnv;
  for (const auto& [s, t] : sample_pairs(net, 2000, 0xD1FF + m)) {
    hash_pair(net, s, t, options, scratch, fnv);
  }
  EXPECT_EQ(fnv.h, snap.expected)
      << "m=" << m << ": construction drifted from pre-rework snapshot";
}

// Recorded from the pre-rework implementation; do not regenerate casually —
// a mismatch means routed containers changed, which breaks cache/bench
// comparability and must be an explicit, documented decision.
constexpr Snapshot kM1[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0xe58585aecc242da5ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0xe58585aecc242da5ULL},  // one differing dim: orderings coincide
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0xe58585aecc242da5ULL},  // no free slots at m=1: policies coincide
};
constexpr Snapshot kM2[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0x1b109c83d4155f25ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0x8d0a6792a7fa3025ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0x8718a22af7b426a5ULL},
};
constexpr Snapshot kM3[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0x5ca2a59203eee95dULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0xeaab775cbb9c33c1ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0xf43247dd2f370279ULL},
};
constexpr Snapshot kM4[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0x5c5ecd2f64ed61a6ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0x4294dd5330a3f251ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0x2657748f56c603f7ULL},
};

TEST(Differential, SnapshotExhaustiveM1) {
  for (const Snapshot& snap : kM1) {
    check_exhaustive_snapshot(1, snap, tls_construction_scratch());
  }
}

TEST(Differential, SnapshotExhaustiveM2) {
  for (const Snapshot& snap : kM2) {
    check_exhaustive_snapshot(2, snap, tls_construction_scratch());
  }
}

TEST(Differential, SnapshotSampledM3) {
  for (const Snapshot& snap : kM3) {
    check_sampled_snapshot(3, snap, tls_construction_scratch());
  }
}

TEST(Differential, SnapshotSampledM4) {
  for (const Snapshot& snap : kM4) {
    check_sampled_snapshot(4, snap, tls_construction_scratch());
  }
}

// Every pin above, on one fresh scratch whose first query was an m = 5
// container: the node buffer then holds more room than any smaller
// container needs, and each construction must still write exactly its own
// paths and span exactly them.
TEST(Differential, SnapshotsHoldOnAScratchFirstGrownAtM5) {
  ConstructionScratch scratch;
  const HhcTopology big{5};
  const DisjointPathSetRef grown =
      node_disjoint_paths(big, 0, big.node_count() - 1, {}, scratch);
  ASSERT_EQ(grown.paths.size(), big.degree());
  const std::size_t capacity = scratch.flat.nodes.capacity();

  for (const Snapshot& snap : kM1) check_exhaustive_snapshot(1, snap, scratch);
  for (const Snapshot& snap : kM2) check_exhaustive_snapshot(2, snap, scratch);
  for (const Snapshot& snap : kM3) check_sampled_snapshot(3, snap, scratch);
  for (const Snapshot& snap : kM4) check_sampled_snapshot(4, snap, scratch);
  // The premise: no smaller container outgrew the m = 5 one's buffer.
  EXPECT_EQ(scratch.flat.nodes.capacity(), capacity);
}

// The copying API and the scratch overload must agree node for node: the
// legacy entry point is DEFINED as scratch + materialize, and this pins
// that equivalence from the outside (exhaustive at m=2, sampled above).
TEST(Differential, LegacyEqualsScratchExhaustiveM2) {
  const HhcTopology net{2};
  auto& scratch = tls_construction_scratch();
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      const DisjointPathSet legacy = node_disjoint_paths(net, s, t);
      const DisjointPathSetRef ref =
          node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(legacy.paths.size(), ref.paths.size());
      for (std::size_t i = 0; i < ref.paths.size(); ++i) {
        ASSERT_TRUE(std::ranges::equal(legacy.paths[i], ref.paths[i]))
            << "s=" << s << " t=" << t << " path " << i;
      }
    }
  }
}

// Scratch-path cardinality against an independent algorithm: max flow on the
// explicit split network. Exhaustive at m=2, sampled at m=3.
TEST(Differential, ArenaCountMatchesMaxflowM2Exhaustive) {
  const HhcTopology net{2};
  const baseline::MaxflowBaseline exact{net};
  auto& scratch = tls_construction_scratch();
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      const DisjointPathSetRef set =
          node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(set.paths.size(), exact.connectivity(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(Differential, ArenaCountMatchesMaxflowM3Sampled) {
  const HhcTopology net{3};
  const baseline::MaxflowBaseline exact{net};
  auto& scratch = tls_construction_scratch();
  for (const auto& [s, t] : sample_pairs(net, 60, 0xD1FF)) {
    const DisjointPathSetRef set = node_disjoint_paths(net, s, t, {}, scratch);
    ASSERT_EQ(set.paths.size(), exact.connectivity(s, t))
        << "s=" << s << " t=" << t;
  }
}

}  // namespace
}  // namespace hhc::core
