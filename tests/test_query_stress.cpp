// Concurrency stress for the path-query engine: many threads hammering one
// PathService (and one ContainerCache underneath) while every answer is
// checked against a serial oracle: the orbit image of the representative's
// construction (orbit_reference.hpp), or a single-threaded route() through
// a cache of its own. Run under ThreadSanitizer in CI (the dedicated tsan
// job builds exactly this subset); the assertions prove bit-identity, TSan
// proves the absence of data races.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "orbit_reference.hpp"
#include "query/path_service.hpp"
#include "util/rng.hpp"

namespace hhc::query {
namespace {

using core::HhcTopology;
using core::Node;

constexpr std::size_t kThreads = 8;

TEST(QueryStress, ConcurrentPristineAnswersMatchSerial) {
  const HhcTopology net{3};
  PathService service{net, {.cache_shards = 4}};

  // Zipf-skewed pair workload: heavy repetition of hot pairs maximizes
  // concurrent hits on the same store entries.
  const auto pairs = core::sample_pairs(net, 64, 2024);
  std::vector<core::DisjointPathSet> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    expected.push_back(orbit_reference::expected_answer(net, s, t));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{1000 + id};
      const util::ZipfianSampler zipf{pairs.size(), 0.9};
      for (std::size_t i = 0; i < 300; ++i) {
        const std::size_t k = zipf(rng);
        const auto answer =
            service.answer(PairQuery{.s = pairs[k].s, .t = pairs[k].t});
        if (answer.paths != expected[k].paths ||
            answer.level != DegradationLevel::kGuaranteed) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, kThreads * 300);
  EXPECT_EQ(stats.guaranteed, stats.queries);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.queries);
  // The workload repeats 64 canonical pairs thousands of times: virtually
  // everything after warmup must be a hit.
  EXPECT_GT(stats.hit_rate(), 0.8);
}

TEST(QueryStress, ConcurrentMixedFaultAndPristineTraffic) {
  const HhcTopology net{2};
  PathService service{net, {.cache_shards = 2}};
  core::ContainerCache reference_cache{net};
  const fault::AdaptiveRouter reference{reference_cache};

  const auto pairs = core::sample_pairs(net, 32, 7);
  // A fixed fault set shared by every thread (the FaultModel is read-only
  // during routing — this is exactly the aliasing a real deployment does).
  core::FaultModel faults;
  faults.fail_node(net.encode(1, 1));
  faults.fail_link(net.encode(0, 0), net.encode(0, 1));

  std::vector<RouteResult> expected;
  for (const auto& [s, t] : pairs) {
    expected.push_back(reference.route(s, t, faults));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{55 + id};
      for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const bool pristine = rng.chance(0.5);
        const auto answer =
            service.answer(PairQuery{.s = pairs[k].s,
                                     .t = pairs[k].t,
                                     .faults = pristine ? nullptr : &faults});
        const bool good =
            pristine
                ? answer.paths == orbit_reference::expected_answer(
                                      net, pairs[k].s, pairs[k].t)
                                      .paths
                : answer.paths == expected[k].paths &&
                      answer.level == expected[k].level;
        if (!good) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.stats().queries, kThreads * 200);
}

TEST(QueryStress, ConcurrentSurvivorFallbackMatchesSerial) {
  // Dense enough faults that a large share of fault-aware queries miss
  // every container path and run the survivor search, so several threads
  // sweep their own per-thread scratch at once over one shared FaultModel.
  const HhcTopology net{3};
  PathService service{net, {.cache_shards = 2}};
  core::ContainerCache reference_cache{net};
  const fault::AdaptiveRouter reference{reference_cache};

  util::Xoshiro256 fault_rng{31};
  core::FaultModel faults;
  for (int k = 0; k < 200; ++k) {
    faults.fail_node(fault_rng.below(net.node_count()));
    const Node u = fault_rng.below(net.node_count());
    faults.fail_link(u, net.neighbors(u)[fault_rng.below(net.degree())]);
  }

  const auto pairs = core::sample_pairs(net, 48, 77);
  std::vector<RouteResult> expected;
  std::size_t expected_fallbacks = 0;
  for (const auto& [s, t] : pairs) {
    expected.push_back(reference.route(s, t, faults));
    if (expected.back().used_fallback) ++expected_fallbacks;
  }
  ASSERT_GE(expected_fallbacks * 5, pairs.size())
      << "fault set too sparse: " << expected_fallbacks << " of "
      << pairs.size() << " pairs take the fallback";

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> fallbacks{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{900 + id};
      for (std::size_t i = 0; i < 150; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const auto answer = service.answer(
            PairQuery{.s = pairs[k].s, .t = pairs[k].t, .faults = &faults});
        if (answer.used_fallback) {
          fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
        if (answer.paths != expected[k].paths ||
            answer.level != expected[k].level ||
            answer.container_paths_blocked !=
                expected[k].container_paths_blocked ||
            answer.used_fallback != expected[k].used_fallback) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(fallbacks.load(), 0u);
  EXPECT_EQ(service.stats().queries, kThreads * 150);
}

TEST(QueryStress, ConcurrentRoutesAcrossFaultEpochsMatchSerial) {
  // Every thread keeps its own fault snapshot. Four threads walk the same
  // queries through fault_churn-shaped epochs of two shared models, each
  // in its own order, so their snapshots re-resolve at different moments
  // while the others route; every answer must be the serial one.
  constexpr std::size_t kRouters = 4;
  constexpr std::uint64_t kEpochs = 6;
  const HhcTopology net{3};
  PathService service{net, {.cache_shards = 2}};
  core::ContainerCache reference_cache{net};
  const fault::AdaptiveRouter reference{reference_cache};

  util::Xoshiro256 fault_rng{41};
  std::vector<core::FaultModel> models(2);
  for (core::FaultModel& faults : models) {
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      for (int k = 0; k < 40; ++k) {
        faults.fail_node(fault_rng.below(net.node_count()), e, e + 1);
      }
      for (int k = 0; k < 400; ++k) {
        const Node u = fault_rng.below(net.node_count());
        faults.fail_link(u, net.neighbors(u)[fault_rng.below(net.degree())],
                         e, e + 1);
      }
    }
  }

  const auto pairs = core::sample_pairs(net, 48, 78);
  const auto query = [&](std::size_t model, std::uint64_t epoch,
                         std::size_t k) {
    return PairQuery{.s = pairs[k].s,
                     .t = pairs[k].t,
                     .faults = &models[model],
                     .time = epoch};
  };
  // expected[(model * kEpochs + epoch) * pairs.size() + k]
  std::vector<RouteResult> expected;
  std::size_t expected_fallbacks = 0;
  for (std::size_t model = 0; model < models.size(); ++model) {
    for (std::uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        expected.push_back(reference.route(query(model, epoch, k)));
        if (expected.back().used_fallback) ++expected_fallbacks;
      }
    }
  }
  ASSERT_GE(expected_fallbacks * 5, expected.size());

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kRouters; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{950 + id};
      for (std::size_t step = 0; step < 240; ++step) {
        // Runs of 8 queries per epoch, and of 40 per model, offset by id.
        const std::uint64_t epoch = (step / 8 + id) % kEpochs;
        const std::size_t model = (step / 40 + id) % models.size();
        if (id == 0 && step % 8 == 0) service.advance_fault_epoch();
        const std::size_t k = rng.below(pairs.size());
        const RouteResult& want =
            expected[(model * kEpochs + epoch) * pairs.size() + k];
        const RouteResult answer = service.answer(query(model, epoch, k));
        if (answer.paths != want.paths || answer.level != want.level ||
            answer.container_paths_blocked != want.container_paths_blocked ||
            answer.used_fallback != want.used_fallback) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.stats().queries, kRouters * 240);
}

TEST(QueryStress, ConcurrentCacheWithEvictionStaysCorrect) {
  // Tiny capacity: most lookups miss the 8-entry store and decode an owning
  // copy while other threads read the borrowed entries.
  const HhcTopology net{3};
  core::ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  const auto pairs = core::sample_pairs(net, 48, 99);
  std::vector<core::DisjointPathSet> expected;
  for (const auto& [s, t] : pairs) {
    expected.push_back(orbit_reference::expected_answer(net, s, t));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{7000 + id};
      for (std::size_t i = 0; i < 150; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const auto set = cache.lookup(pairs[k].s, pairs[k].t).materialize();
        if (set.paths != expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * 150);
}

TEST(QueryStress, ConcurrentOrbitFillsAreDeterministic) {
  // Every round starts a fresh service, releases the threads at once, and
  // walks them through the same pairs in the same order, so they race the
  // first fill of each orbit record through answer(), answer_view() and a
  // bare cache lookup. Losing a fill's publication must still serve the
  // single-threaded answer.
  const HhcTopology net{4};
  const auto pairs = core::sample_pairs(net, 96, 4242);
  core::ContainerCache serial{net};
  std::vector<std::vector<core::Path>> expected;
  for (const auto& [s, t] : pairs) {
    expected.push_back(serial.materialize(s, t).paths);
  }
  const std::size_t orbits = serial.stats().orbit_entries;

  constexpr std::size_t kFillThreads = 6;
  constexpr int kRounds = 4;
  std::atomic<std::size_t> mismatches{0};
  for (int round = 0; round < kRounds; ++round) {
    PathService service{net, {.cache_shards = 2}};
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t id = 0; id < kFillThreads; ++id) {
      threads.emplace_back([&, id] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < kFillThreads) {
          std::this_thread::yield();
        }
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const PairQuery q{.s = pairs[k].s, .t = pairs[k].t};
          std::vector<core::Path> got;
          switch ((id + k) % 3) {
            case 0: got = service.answer(q).paths; break;
            case 1:
              got = service.answer_view(q).container.materialize().paths;
              break;
            default:
              got = service.cache().lookup(q.s, q.t).materialize().paths;
              break;
          }
          if (got != expected[k]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    // A lost publication is not a fill: one fill per orbit, however many
    // threads raced it.
    EXPECT_EQ(service.cache().stats().orbit_entries, orbits);
  }
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(QueryStress, ConcurrentBatchesOnOneService) {
  // Multiple caller threads each issuing whole batches (the service's own
  // pool fans each batch out further) — nested parallelism must neither
  // race nor reorder results.
  const HhcTopology net{2};
  PathService service{net, {.threads = 2}};
  const auto pairs = core::sample_pairs(net, 40, 5);
  std::vector<PairQuery> queries;
  for (const auto& [s, t] : pairs) queries.push_back({.s = s, .t = t});
  std::vector<RouteResult> expected;
  for (const auto& q : queries) {
    expected.push_back(RouteResult{
        .paths = orbit_reference::expected_answer(net, q.s, q.t).paths,
        .level = DegradationLevel::kGuaranteed});
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> callers;
  for (std::size_t id = 0; id < 4; ++id) {
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        const auto results = service.answer(queries);
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (results[i].paths != expected[i].paths) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : callers) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace hhc::query
