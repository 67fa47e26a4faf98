// Concurrency regression suite for the lock-free ContainerCache read paths
// (labelled `stress`: the TSan CI job builds and runs this binary).
//
// At m = 5 each shard publishes its index as an immutable snapshot that
// readers pin per thread without a lock, while writers build-then-swap
// replacement snapshots under a per-shard mutex. These tests drive lookups
// concurrently against every writer-side event — insert (publication),
// eviction, and clear() — asserting that readers always observe a coherent
// snapshot (bit-identical answers to the oracle in orbit_reference.hpp)
// and that handles pin their containers across arbitrary churn. At m <= 4
// lookup() reads the orbit table's class tier instead: racing first
// lookups of one class must publish one entry and read identical bits.
// Together they are the TSan proof obligation for DESIGN.md §9.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/container_cache.hpp"
#include "core/metrics.hpp"
#include "orbit_reference.hpp"
#include "util/rng.hpp"
#include "util/striped.hpp"

namespace hhc::core {
namespace {

constexpr std::size_t kThreads = 8;

TEST(SnapshotStress, LookupsRaceInsertionsAndEvictions) {
  // Tiny shards + more keys than capacity: every thread's lookup stream is
  // a mix of lock-free hits, constructing misses, and displacing inserts,
  // so index snapshots are republished constantly while other threads read
  // them. Any torn read or stale-index use shows up as a path mismatch.
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  const auto pairs = sample_pairs(net, 64, 7);
  std::vector<DisjointPathSet> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    expected.push_back(orbit_reference::expected_answer(net, s, t));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{1000 + id};
      for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const ContainerHandle handle = cache.lookup(pairs[k].s, pairs[k].t);
        if (handle.materialize().paths != expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * 200);
}

TEST(SnapshotStress, HandlesOutliveConcurrentChurn) {
  // The handle-lifetime contract under contention: handles taken before a
  // storm of evictions/republications (and a final clear()) must keep
  // reading their original containers byte-for-byte. A handle shares
  // ownership of the flat container, so the churn can only retire the
  // *index* snapshots, never the containers a reader still holds.
  const HhcTopology net{5};
  ContainerCache cache{net, {.shards = 1, .max_entries_per_shard = 2}};
  const auto pairs = sample_pairs(net, 48, 29);

  std::vector<ContainerHandle> handles;
  std::vector<DisjointPathSet> before;
  for (std::size_t k = 0; k < 8; ++k) {
    handles.push_back(cache.lookup(pairs[k].s, pairs[k].t));
    before.push_back(handles.back().materialize());
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{5000 + id};
      for (std::size_t i = 0; i < 100; ++i) {
        const std::size_t k = rng.below(pairs.size());
        (void)cache.lookup(pairs[k].s, pairs[k].t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(cache.evictions(), 0u);
  cache.clear();

  for (std::size_t k = 0; k < handles.size(); ++k) {
    ASSERT_TRUE(handles[k].valid());
    EXPECT_EQ(handles[k].materialize().paths, before[k].paths);
  }
}

TEST(SnapshotStress, ClearRacesLookupsWithoutTearing) {
  // clear() unpublishes every shard's snapshot while readers run. A reader
  // either sees the old snapshot (hit) or none (miss + reconstruction) —
  // both must yield the pair's orbit image; nothing may crash or tear.
  const HhcTopology net{2};
  ContainerCache cache{net, {.shards = 2}};
  const auto pairs = sample_pairs(net, 16, 3);
  std::vector<DisjointPathSet> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    expected.push_back(orbit_reference::expected_answer(net, s, t));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t id = 0; id < kThreads - 1; ++id) {
    readers.emplace_back([&, id] {
      util::Xoshiro256 rng{9000 + id};
      for (std::size_t i = 0; i < 300; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const auto set = cache.lookup(pairs[k].s, pairs[k].t).materialize();
        if (set.paths != expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread clearer{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.clear();
      std::this_thread::yield();
    }
  }};
  for (auto& thread : readers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  clearer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SnapshotStress, TierFirstLookupsPublishOneEntryPerClass) {
  // Four threads released together look up the same classes in the same
  // order, so first lookups of a class may race each other's CAS. Every
  // handle must borrow an entry with the oracle's bits, and the tier must
  // end with exactly one entry per distinct class.
  constexpr std::size_t kRacers = 4;
  const HhcTopology net{3};
  ContainerCache cache{net};
  const auto pairs = sample_pairs(net, 256, 41);
  std::vector<DisjointPathSet> expected;
  std::vector<std::uint64_t> classes;
  for (const auto& [s, t] : pairs) {
    expected.push_back(orbit_reference::expected_answer(net, s, t));
    classes.push_back(((net.cluster_of(s) ^ net.cluster_of(t)) << 6) |
                      (net.position_of(s) << 3) | net.position_of(t));
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());

  std::atomic<bool> go{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kRacers; ++id) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const ContainerHandle handle = cache.lookup(pairs[k].s, pairs[k].t);
        if (!handle.borrowed() ||
            handle.materialize().paths != expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(cache.stats().tier_entries, classes.size());
  EXPECT_EQ(cache.hits() + cache.misses(), kRacers * pairs.size());
}

TEST(StripedCounter, FoldIsExactAfterWritersJoin) {
  util::StripedCounter counter;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.fold(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.fold(), 0u);
  counter.add(3);
  EXPECT_EQ(counter.fold(), 3u);
}

TEST(StripedCounter, InstancesAreIndependent) {
  // Two counters incremented from the same threads must not share cells
  // (the TLS cache is keyed by each counter's process-unique id).
  util::StripedCounter a;
  util::StripedCounter b;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        a.add(2);
        b.add();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(a.fold(), kThreads * 2000u);
  EXPECT_EQ(b.fold(), kThreads * 1000u);
}

}  // namespace
}  // namespace hhc::core
