#include <gtest/gtest.h>

#include "core/container_cache.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/orbit_table.hpp"
#include "orbit_reference.hpp"

namespace hhc::core {
namespace {

TEST(ContainerCache, MatchesDirectConstructionExactly) {
  // m = 5 has no orbit table: a miss runs the construction, so both entry
  // points answer node_disjoint_paths(s, t) bit for bit.
  const HhcTopology net{5};
  ContainerCache cache{net};
  EXPECT_EQ(cache.stats().orbit_bytes, 0u);
  for (const auto& [s, t] : sample_pairs(net, 40, 77)) {
    const auto direct = node_disjoint_paths(net, s, t);
    const auto cached = cache.lookup(s, t).materialize();
    ASSERT_EQ(cached.paths.size(), direct.paths.size());
    for (std::size_t i = 0; i < direct.paths.size(); ++i) {
      EXPECT_EQ(cached.paths[i], direct.paths[i]) << "s=" << s << " t=" << t;
    }
    EXPECT_EQ(cache.materialize(s, t).paths, direct.paths);
  }
  EXPECT_EQ(cache.stats().orbit_bytes, 0u);
}

TEST(ContainerCache, MatchesTheOrbitImageExactly) {
  // At m <= 4 an entry is the automorphism image of its orbit
  // representative's construction (core/orbit_table.hpp). The cache builds
  // its orbit table in its constructor: a fresh cache holds the slot array
  // and no record.
  const HhcTopology net{3};
  ContainerCache cache{net};
  EXPECT_GT(cache.stats().orbit_bytes, 0u);
  EXPECT_EQ(cache.stats().orbit_entries, 0u);
  for (const auto& [s, t] : sample_pairs(net, 300, 77)) {
    const auto expected = orbit_reference::expected_answer(net, s, t);
    const auto cached = cache.lookup(s, t).materialize();
    ASSERT_EQ(cached.paths.size(), expected.paths.size());
    for (std::size_t i = 0; i < expected.paths.size(); ++i) {
      EXPECT_EQ(cached.paths[i], expected.paths[i]) << "s=" << s << " t=" << t;
    }
    EXPECT_EQ(cache.materialize(s, t).paths, expected.paths);
  }
}

// The store behaves alike at every m; the tests below run at m = 5, where
// a miss is a construction and entries equal it bit for bit, and
// TierServesEveryClass covers m = 3.
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
  // clear() resets the counters, so post-clear hit rates are meaningful.
  // Storage stays: entries may be lent out, so the next lookup of a stored
  // class hits and borrows the same entry.
  const HhcTopology net{5};
  ContainerCache cache{net};
  (void)cache.lookup(0, 63);
  (void)cache.lookup(0, 63);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 1u);
  bool hit = false;
  const ContainerHandle again = cache.lookup(0, 63, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(again.borrowed());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(again.materialize().paths, node_disjoint_paths(net, 0, 63).paths);
}

TEST(ContainerCache, TopologyHeldByReference) {
  // The cache no longer copies the topology: answers must come from the
  // caller's instance. (Compile-time shape: ContainerCache is not copyable
  // and takes const&; this exercises the aliasing at runtime.)
  const HhcTopology net{2};
  ContainerCache cache{net};
  EXPECT_EQ(&cache.net(), &net);
}

TEST(ContainerCache, ReportsPerCallHitState) {
  const HhcTopology net{2};
  ContainerCache cache{net};
  bool hit = true;
  (void)cache.lookup(0, 63, &hit);
  EXPECT_FALSE(hit);
  (void)cache.lookup(0, 63, &hit);
  EXPECT_TRUE(hit);
}

TEST(ContainerCache, EvictionKeepsShardsBounded) {
  // A capped store holds shards x max_entries_per_shard classes and evicts
  // nothing: later classes are served as owning copies, still correct.
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  std::size_t owning = 0;
  for (const auto& [s, t] : sample_pairs(net, 400, 11)) {
    const ContainerHandle handle = cache.lookup(s, t);
    if (!handle.borrowed()) ++owning;
    const auto set = handle.materialize();
    std::string why;
    ASSERT_TRUE(verify_disjoint_path_set(net, set, s, t, &why)) << why;
    ASSERT_EQ(set.paths, node_disjoint_paths(net, s, t).paths);
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_GT(owning, 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.size());
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ContainerCache, EvictionCountsAreExact) {
  // Single-threaded, every miss either publishes one entry (and borrows
  // it) or, once the store is full, hands out one owning copy; every hit
  // borrows. So the counters reconcile exactly.
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  std::size_t published = 0;
  std::size_t owning = 0;
  std::size_t borrowed_hits = 0;
  for (const auto& [s, t] : sample_pairs(net, 300, 17)) {
    bool hit = false;
    const ContainerHandle handle = cache.lookup(s, t, &hit);
    if (!handle.borrowed()) {
      ASSERT_FALSE(hit);
      ++owning;
    } else if (hit) {
      ++borrowed_hits;
    } else {
      ++published;
    }
  }
  EXPECT_EQ(published, cache.size());
  EXPECT_EQ(cache.misses(), cache.size() + owning);
  EXPECT_EQ(cache.hits(), borrowed_hits);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ContainerCache, StatsSnapshotAddsUp) {
  const HhcTopology net{2};
  ContainerCache cache{net, {.shards = 5}};
  for (const auto& [s, t] : sample_pairs(net, 60, 13)) (void)cache.lookup(s, t);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 60u);
  EXPECT_EQ(stats.hits, cache.hits());
  EXPECT_EQ(stats.misses, cache.misses());
  EXPECT_EQ(stats.entries, cache.size());
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LE(stats.entries, 60u);
  EXPECT_GT(stats.hit_rate(), 0.0);

  // The unified rows render carries the same numbers (aggregate section
  // first, then the orbit tables).
  const auto rows = stats.rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].section, "cache");
  EXPECT_EQ(rows[0].name, "entries");
  EXPECT_EQ(static_cast<std::size_t>(rows[0].value), stats.entries);
  EXPECT_EQ(rows[1].name, "hits");
  EXPECT_EQ(static_cast<std::size_t>(rows[1].value), stats.hits);
  EXPECT_EQ(rows[2].name, "misses");
  EXPECT_EQ(static_cast<std::size_t>(rows[2].value), stats.misses);
  EXPECT_EQ(rows[3].name, "hit_rate");
  constexpr std::size_t orbit = 4;
  EXPECT_EQ(rows[orbit].section, "cache.orbit");
  EXPECT_EQ(rows[orbit].name, "entries");
  EXPECT_EQ(static_cast<std::size_t>(rows[orbit].value), stats.orbit_entries);
  EXPECT_GT(stats.orbit_entries, 0u);
  EXPECT_LE(stats.orbit_entries, stats.misses);
  EXPECT_EQ(rows[orbit + 1].section, "cache.orbit");
  EXPECT_EQ(rows[orbit + 1].name, "bytes");
  EXPECT_EQ(static_cast<std::size_t>(rows[orbit + 1].value), stats.orbit_bytes);
}

TEST(ContainerCache, RejectsBadInput) {
  const HhcTopology net{2};
  ContainerCache cache{net};
  EXPECT_THROW((void)cache.lookup(3, 3), std::invalid_argument);
  EXPECT_THROW((void)cache.lookup(0, net.node_count()), std::invalid_argument);
}

TEST(ContainerCache, TierServesEveryClass) {
  // Every translation class at m = 3, each from a different source
  // cluster: lookup() borrows the store's entry, which equals
  // materialize() and the orbit-image oracle bit for bit. clear() keeps
  // the entries.
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
        ASSERT_EQ(cache.materialize(s, t).paths, expected.paths);
      }
    }
  }
  EXPECT_EQ(classes, 16376u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, classes);
  EXPECT_EQ(stats.orbit_entries, OrbitTable::kOrbitCounts[3]);

  cache.clear();
  bool hit = false;
  EXPECT_TRUE(cache.lookup(1, 2000, &hit).borrowed());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), classes);
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
  // Nothing is evicted: a borrowed handle keeps its bits across clear()
  // and any later traffic while the cache lives, and an owning handle (a
  // class past the 2-entry capacity) outlives the cache itself.
  const HhcTopology net{5};
  const auto pairs = sample_pairs(net, 60, 23);
  const auto [s, t] = pairs[0];
  const auto [u, v] = pairs.back();
  ContainerHandle owning;
  {
    ContainerCache cache{net, {.shards = 1, .max_entries_per_shard = 2}};
    const ContainerHandle borrowed = cache.lookup(s, t);
    ASSERT_TRUE(borrowed.borrowed());
    const auto before = borrowed.materialize();

    for (const auto& [a, b] : pairs) (void)cache.lookup(a, b);
    cache.clear();
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(borrowed.materialize().paths, before.paths);
    EXPECT_EQ(cache.lookup(s, t).materialize().paths, before.paths);
    owning = cache.lookup(u, v);
    ASSERT_FALSE(owning.borrowed());
  }
  ASSERT_TRUE(owning.valid());
  EXPECT_EQ(owning.materialize().paths, node_disjoint_paths(net, u, v).paths);
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
  const ContainerHandle other = cache.lookup(s2, t2, &hit);
  EXPECT_TRUE(hit);  // same canonical key: no second construction
  EXPECT_EQ(other.source(), s2);
  EXPECT_EQ(other.target(), t2);
  EXPECT_EQ(other.materialize().paths,
            orbit_reference::expected_answer(net, s2, t2).paths);
}

}  // namespace
}  // namespace hhc::core
