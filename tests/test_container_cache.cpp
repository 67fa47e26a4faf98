#include <gtest/gtest.h>

#include "core/container_cache.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/orbit_table.hpp"
#include "orbit_reference.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

TEST(ContainerCache, MatchesDirectConstructionExactly) {
  // m = 5 has no orbit table: a miss runs the construction, so both entry
  // points answer node_disjoint_paths(s, t) bit for bit.
  const HhcTopology net{5};
  ContainerCache cache{net};
  for (const auto& [s, t] : sample_pairs(net, 40, 77)) {
    const auto direct = node_disjoint_paths(net, s, t);
    const auto cached = cache.lookup(s, t).materialize();
    ASSERT_EQ(cached.paths.size(), direct.paths.size());
    for (std::size_t i = 0; i < direct.paths.size(); ++i) {
      EXPECT_EQ(cached.paths[i], direct.paths[i]) << "s=" << s << " t=" << t;
    }
    EXPECT_EQ(cache.materialize(s, t, {}).paths, direct.paths);
  }
  EXPECT_EQ(cache.stats().orbit_variants, 0u);
}

TEST(ContainerCache, MatchesTheOrbitImageExactly) {
  // At m <= 4 an entry is the automorphism image of its orbit
  // representative's construction (core/orbit_table.hpp).
  const HhcTopology net{3};
  ContainerCache cache{net};
  for (const auto& [s, t] : sample_pairs(net, 300, 77)) {
    const auto expected = orbit_reference::expected_answer(net, s, t);
    const auto cached = cache.lookup(s, t).materialize();
    ASSERT_EQ(cached.paths.size(), expected.paths.size());
    for (std::size_t i = 0; i < expected.paths.size(); ++i) {
      EXPECT_EQ(cached.paths[i], expected.paths[i]) << "s=" << s << " t=" << t;
    }
    EXPECT_EQ(cache.materialize(s, t, {}).paths, expected.paths);
  }
}

// The shard indexes (size(), index probes, clear(), eviction, publication)
// serve m = 5 only, so the tests of them run there; at m <= 4 lookup()
// reads the class tier (TierServesEveryClass below).
TEST(ContainerCache, TranslatedPairsHitTheCache) {
  const HhcTopology net{5};
  ContainerCache cache{net};
  const std::uint64_t ys = 2;
  const std::uint64_t yt = 5;
  const std::uint64_t xdiff = 0b10011010;
  // Same canonical triple under many translations: one miss, rest hits.
  for (std::uint64_t a = 0; a < 40; ++a) {
    const Node s = net.encode(a, ys);
    const Node t = net.encode(a ^ xdiff, yt);
    const auto set = cache.lookup(s, t).materialize();
    std::string why;
    EXPECT_TRUE(verify_disjoint_path_set(net, set, s, t, &why)) << why;
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 39u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ContainerCache, DistinctTriplesMiss) {
  const HhcTopology net{5};
  ContainerCache cache{net};
  (void)cache.lookup(net.encode(0, 0), net.encode(1, 1));
  (void)cache.lookup(net.encode(0, 0), net.encode(2, 1));  // different xdiff
  (void)cache.lookup(net.encode(0, 1), net.encode(1, 0));  // different ys/yt
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ContainerCache, SameClusterPairsWork) {
  const HhcTopology net{2};
  ContainerCache cache{net};
  const Node s = net.encode(7, 0);
  const Node t = net.encode(7, 3);
  const auto set = cache.lookup(s, t).materialize();
  std::string why;
  EXPECT_TRUE(verify_disjoint_path_set(net, set, s, t, &why)) << why;
  // A second same-cluster pair with the same positions hits.
  (void)cache.lookup(net.encode(9, 0), net.encode(9, 3));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ContainerCache, ClearResetsStorageAndCounters) {
  // clear() means "as good as freshly constructed": entries AND counters go,
  // so post-clear hit rates are meaningful (the documented choice).
  const HhcTopology net{5};
  ContainerCache cache{net};
  (void)cache.lookup(0, 63);
  (void)cache.lookup(0, 63);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ContainerCache, TopologyHeldByReference) {
  // The cache no longer copies the topology: answers must come from the
  // caller's instance. (Compile-time shape: ContainerCache is not copyable
  // and takes const&; this exercises the aliasing at runtime.)
  const HhcTopology net{2};
  ContainerCache cache{net};
  EXPECT_EQ(&cache.net(), &net);
}

TEST(ContainerCache, OptionsArePartOfTheKey) {
  // kCanonical and kBalanced build different containers for some pairs;
  // serving one policy's container for the other would answer the wrong
  // image.
  const HhcTopology net{3};
  ContainerCache cache{net};
  const ConstructionOptions balanced{.selection = RouteSelectionPolicy::kBalanced};
  for (const auto& [s, t] : sample_pairs(net, 120, 5)) {
    EXPECT_EQ(cache.lookup(s, t).materialize().paths,
              orbit_reference::expected_answer(net, s, t).paths);
    EXPECT_EQ(cache.lookup(s, t, balanced).materialize().paths,
              orbit_reference::expected_answer(net, s, t, balanced).paths);
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 240u);
}

TEST(ContainerCache, ReportsPerCallHitState) {
  const HhcTopology net{2};
  ContainerCache cache{net};
  bool hit = true;
  (void)cache.lookup(0, 63, {}, &hit);
  EXPECT_FALSE(hit);
  (void)cache.lookup(0, 63, {}, &hit);
  EXPECT_TRUE(hit);
}

TEST(ContainerCache, EvictionKeepsShardsBounded) {
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  for (const auto& [s, t] : sample_pairs(net, 400, 11)) {
    const auto set = cache.lookup(s, t).materialize();
    std::string why;
    ASSERT_TRUE(verify_disjoint_path_set(net, set, s, t, &why)) << why;
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.evictions(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.size());
  for (const auto& shard : stats.shards) EXPECT_LE(shard.entries, 4u);
}

TEST(ContainerCache, EvictionCountsAreExact) {
  // Every miss inserts exactly one entry and, once a shard is full,
  // displaces exactly one resident — so the counters reconcile exactly:
  // misses = live entries + evictions.
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  for (const auto& [s, t] : sample_pairs(net, 300, 17)) {
    (void)cache.lookup(s, t);
  }
  EXPECT_EQ(cache.misses(), cache.size() + cache.evictions());
  const auto stats = cache.stats();
  std::size_t per_shard = 0;
  for (const auto& shard : stats.shards) per_shard += shard.evictions;
  EXPECT_EQ(per_shard, cache.evictions());
}

// Hit/miss fingerprint of a fixed re-referencing workload under eviction
// pressure: which queries hit depends only on which victims were evicted.
std::uint64_t eviction_fingerprint(std::uint64_t eviction_seed) {
  const HhcTopology net{5};
  ContainerCache cache{net,
                       {.shards = 1,
                        .max_entries_per_shard = 8,
                        .eviction_seed = eviction_seed}};
  const auto pairs = sample_pairs(net, 64, 5);
  util::Xoshiro256 rng{99};
  std::uint64_t fingerprint = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto& [s, t] = pairs[rng.below(pairs.size())];
    // The index hit, not the per-call flag: once the orbit records are
    // filled every call is served without the construction.
    const std::size_t hits_before = cache.hits();
    (void)cache.lookup(s, t);
    const bool hit = cache.hits() > hits_before;
    fingerprint = fingerprint * 1099511628211ULL + (hit ? 1 : 0);
  }
  return fingerprint;
}

TEST(ContainerCache, EvictionIsSeededAndReproducible) {
  // Same eviction seed -> bit-identical victim choices; a different seed
  // must pick different victims somewhere in 2000 pressured lookups. The
  // pre-fix implementation always erased map.begin() — "random" in name
  // only — which made both fingerprints identical for ANY pair of seeds.
  EXPECT_EQ(eviction_fingerprint(1), eviction_fingerprint(1));
  EXPECT_NE(eviction_fingerprint(1), eviction_fingerprint(2));
}

TEST(ContainerCache, StatsSnapshotAddsUp) {
  const HhcTopology net{2};
  ContainerCache cache{net, {.shards = 5}};  // rounds up to 8
  EXPECT_EQ(cache.shard_count(), 8u);
  for (const auto& [s, t] : sample_pairs(net, 60, 13)) (void)cache.lookup(s, t);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 60u);
  EXPECT_EQ(stats.hits, cache.hits());
  EXPECT_EQ(stats.misses, cache.misses());
  std::size_t entries = 0;
  for (const auto& shard : stats.shards) entries += shard.entries;
  EXPECT_EQ(entries, stats.entries);
  EXPECT_GT(stats.hit_rate(), 0.0);

  // The unified rows render carries the same numbers (aggregate section
  // first, then one section per shard, then the orbit tables).
  const auto rows = stats.rows();
  ASSERT_EQ(rows.size(), 5 + 2 * stats.shards.size() + 4);
  EXPECT_EQ(rows[0].section, "cache");
  EXPECT_EQ(rows[0].name, "entries");
  EXPECT_EQ(static_cast<std::size_t>(rows[0].value), stats.entries);
  EXPECT_EQ(rows[1].name, "hits");
  EXPECT_EQ(static_cast<std::size_t>(rows[1].value), stats.hits);
  EXPECT_EQ(rows[5].section, "cache.shard0");
  const std::size_t orbit = 5 + 2 * stats.shards.size();
  EXPECT_EQ(rows[orbit].section, "cache.orbit");
  EXPECT_EQ(rows[orbit].name, "variants");
  EXPECT_EQ(static_cast<std::size_t>(rows[orbit].value), 1u);
  EXPECT_EQ(rows[orbit + 1].name, "entries");
  EXPECT_EQ(static_cast<std::size_t>(rows[orbit + 1].value),
            stats.orbit_entries);
  EXPECT_GT(stats.orbit_entries, 0u);
  EXPECT_LE(stats.orbit_entries, stats.misses);
  EXPECT_EQ(rows[orbit + 2].name, "bytes");
  EXPECT_EQ(static_cast<std::size_t>(rows[orbit + 2].value), stats.orbit_bytes);
  EXPECT_EQ(rows[orbit + 3].name, "tier_entries");
  EXPECT_EQ(static_cast<std::size_t>(rows[orbit + 3].value),
            stats.tier_entries);
  EXPECT_GT(stats.tier_entries, 0u);
}

TEST(ContainerCache, RejectsBadInput) {
  const HhcTopology net{2};
  ContainerCache cache{net};
  EXPECT_THROW((void)cache.lookup(3, 3), std::invalid_argument);
  EXPECT_THROW((void)cache.lookup(0, net.node_count()), std::invalid_argument);
}

TEST(ContainerCache, TierServesEveryClass) {
  // Every translation class at m = 3, each from a different source
  // cluster: lookup() borrows the class tier's entry, which equals
  // materialize() and the orbit-image oracle bit for bit. The shard
  // indexes stay empty, and clear() keeps the tier.
  const HhcTopology net{3};
  ContainerCache cache{net};
  std::size_t classes = 0;
  for (std::uint64_t xdiff = 0; xdiff < net.cluster_count(); ++xdiff) {
    for (std::uint64_t ys = 0; ys < net.cluster_size(); ++ys) {
      for (std::uint64_t yt = 0; yt < net.cluster_size(); ++yt) {
        if (xdiff == 0 && ys == yt) continue;
        const std::uint64_t xs = (classes++ * 37) % net.cluster_count();
        const Node s = net.encode(xs, ys);
        const Node t = net.encode(xs ^ xdiff, yt);
        const ContainerHandle handle = cache.lookup(s, t);
        ASSERT_TRUE(handle.borrowed());
        const auto expected = orbit_reference::expected_answer(net, s, t);
        ASSERT_EQ(handle.materialize().paths, expected.paths)
            << "s=" << s << " t=" << t;
        ASSERT_EQ(cache.materialize(s, t, {}).paths, expected.paths);
      }
    }
  }
  EXPECT_EQ(classes, 16376u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.tier_entries, classes);
  EXPECT_EQ(stats.orbit_entries, OrbitTable::kOrbitCounts[3]);

  cache.clear();
  bool hit = false;
  EXPECT_TRUE(cache.lookup(1, 2000, {}, &hit).borrowed());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().tier_entries, classes);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ContainerCache, LookupMaterializesToPathsResult) {
  const HhcTopology net{3};
  ContainerCache cache{net};
  for (const auto& [s, t] : sample_pairs(net, 40, 21)) {
    const ContainerHandle handle = cache.lookup(s, t);
    ASSERT_TRUE(handle.valid());
    EXPECT_EQ(handle.path_count(), net.m() + 1);
    EXPECT_EQ(handle.source(), s);
    EXPECT_EQ(handle.target(), t);
    const auto set = handle.materialize();
    EXPECT_EQ(set.paths, orbit_reference::expected_answer(net, s, t).paths);
    EXPECT_EQ(handle.max_length(), set.max_length());
    for (std::size_t i = 0; i < set.paths.size(); ++i) {
      EXPECT_EQ(handle.materialize_path(i), set.paths[i]);
    }
  }
}

TEST(ContainerCache, HandleSurvivesEviction) {
  // A handle shares ownership of its flat container: evicting (or clearing)
  // the cache entry must not invalidate outstanding views.
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 1, .max_entries_per_shard = 2}};
  const auto pairs = sample_pairs(net, 60, 23);
  const auto [s, t] = pairs[0];
  const ContainerHandle handle = cache.lookup(s, t);
  const auto before = handle.materialize();

  // Thrash the 2-entry shard until the original entry is long gone, then
  // drop everything for good measure.
  for (const auto& [a, b] : pairs) (void)cache.lookup(a, b);
  EXPECT_GT(cache.evictions(), 0u);
  cache.clear();

  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.materialize().paths, before.paths);
  // A fresh lookup after eviction reconstructs the identical container.
  EXPECT_EQ(cache.lookup(s, t).materialize().paths, before.paths);
}

TEST(ContainerCache, TranslatedPairsShareOneFlatContainer) {
  // Two pairs in the same canonical class must be served from one shared
  // container, distinguished only by the handles' XOR relabeling.
  const HhcTopology net{2};
  ContainerCache cache{net};
  const Node s1 = net.encode(0b01, 0), t1 = net.encode(0b10, 1);
  const std::uint64_t xs = 0b11;
  const Node s2 = net.encode(0b01 ^ xs, 0), t2 = net.encode(0b10 ^ xs, 1);

  (void)cache.lookup(s1, t1);
  bool hit = false;
  const ContainerHandle other = cache.lookup(s2, t2, cache.options(), &hit);
  EXPECT_TRUE(hit);  // same canonical key: no second construction
  EXPECT_EQ(other.source(), s2);
  EXPECT_EQ(other.target(), t2);
  EXPECT_EQ(other.materialize().paths,
            orbit_reference::expected_answer(net, s2, t2).paths);
}

TEST(ContainerCache, PublicationKnobsClampAndStayCorrect) {
  // The publication knobs shape index growth, never results: a pre-sized
  // index (initial_index_capacity) and out-of-range load ceilings (clamped
  // into (10, 90]) must serve the same answers and the same entry counts
  // as the defaults across repeated grow-republish cycles.
  const HhcTopology net{5};
  const auto pairs = sample_pairs(net, 48, 0xC0FFEE);

  ContainerCache::Config configs[] = {
      {.shards = 1, .initial_index_capacity = 1024},  // no early grows
      {.shards = 1, .initial_index_capacity = 1, .max_load_percent = 200},
      {.shards = 1, .max_load_percent = 1},  // clamps to 10: grow-heavy
  };
  ContainerCache reference{net};
  for (auto& config : configs) {
    ContainerCache cache{net, config};
    for (const auto& [s, t] : pairs) {
      EXPECT_EQ(cache.lookup(s, t).materialize().paths,
                reference.lookup(s, t).materialize().paths);
    }
    EXPECT_EQ(cache.size(), reference.size());
    bool hit = false;
    (void)cache.lookup(pairs[0].s, pairs[0].t, cache.options(), &hit);
    EXPECT_TRUE(hit);
  }
}

}  // namespace
}  // namespace hhc::core
