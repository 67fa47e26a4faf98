// Concurrent admission suite (PR 8) — TSan's view of the shed-fast path.
//
// The lock-free gate keeps admission decisions on relaxed atomics and
// per-thread striped cells; these tests race every combination that
// matters — answers against sheds, epoch advances against breaker records,
// stats() folds against answers — and then assert the EXACT accounting
// invariants once the writers quiesce:
//
//   * no leaked in-flight credits: in_flight() == 0 after every admitted
//     verdict has been released, across bounds and slot claims;
//   * the outcome partition stays exact under concurrency.
//
// Runs under the CI TSan job (ctest -L stress).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "query/path_service.hpp"
#include "util/rng.hpp"

namespace hhc::query {
namespace {

using core::HhcTopology;
using util::Deadline;

// One seeded mixed run against a bare gate: every thread admits with its
// own RNG-driven think pattern and releases every slot it was granted.
// Returns the number of admitted (slot-holding) verdicts.
std::uint64_t hammer_gate(AdmissionGate& gate, std::size_t threads,
                          int rounds, std::uint64_t seed) {
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng{seed + t};
      for (int i = 0; i < rounds; ++i) {
        if (gate.admit(Deadline{}, nullptr) == AdmissionVerdict::kAdmitted) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          if (rng.chance(0.5)) std::this_thread::yield();  // hold the slot
          gate.release();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return admitted.load();
}

TEST(AdmissionConcurrent, NoLeakedCreditsAcrossPoliciesAndBounds) {
  // Bounded gates of one and four slots: eight threads claim, hold and
  // release slots, so claims race releases of slots other threads held.
  for (const std::size_t bound : {std::size_t{1}, std::size_t{4}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      AdmissionConfig config;
      config.max_in_flight = bound;
      AdmissionGate gate{config};
      const std::uint64_t admitted = hammer_gate(gate, 8, 500, seed);
      EXPECT_GT(admitted, 0u);
      EXPECT_EQ(gate.in_flight(), 0u)
          << "leaked credits: bound=" << bound << " seed=" << seed;
    }
  }
}

TEST(AdmissionConcurrent, BreakerRacesRecordShortCircuitAndEpochAdvance) {
  CircuitBreaker breaker{2};
  std::atomic<bool> stop{false};
  std::thread advancer{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      breaker.advance_fault_epoch();
      std::this_thread::yield();
    }
  }};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng{100 + t};
      for (int i = 0; i < 3000; ++i) {
        const core::Node s = t % 3;
        breaker.record(s, s + 1, rng.chance(0.7));
        (void)breaker.should_short_circuit(s, s + 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true, std::memory_order_relaxed);
  advancer.join();
  // Liveness/sanity under the wait-free advance: the epoch moved, and a
  // fresh epoch leaves every pair un-short-circuited.
  EXPECT_GT(breaker.fault_epoch(), 0u);
  breaker.advance_fault_epoch();
  for (core::Node s = 0; s < 3; ++s) {
    EXPECT_FALSE(breaker.should_short_circuit(s, s + 1));
  }
}

TEST(AdmissionConcurrent, ServicePartitionStaysExactUnderRacingTraffic) {
  const HhcTopology net{1};
  PathServiceConfig config;
  config.threads = 1;  // answers come from OUR racing threads, not a pool
  config.admission.max_in_flight = 4;
  config.admission.breaker_threshold = 2;
  PathService service{net, config};

  core::FaultModel faults;
  faults.fail_node(net.node_count() - 1);

  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 400;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> stop{false};

  std::thread chaos{[&] {
    // Epoch advances and stats() folds racing the answer threads: the
    // striped cells and the breaker's map must tolerate mid-flight reads.
    while (!stop.load(std::memory_order_relaxed)) {
      service.advance_fault_epoch();
      const ServiceStats mid = service.stats();
      EXPECT_LE(mid.pristine + mid.fault_aware,
                sent.load(std::memory_order_relaxed) + kThreads);
      std::this_thread::yield();
    }
  }};

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng{42 + t};
      for (int i = 0; i < kRounds; ++i) {
        PairQuery query;
        query.s = rng.below(net.node_count());
        query.t = rng.below(net.node_count());
        if (rng.chance(0.3)) query.faults = &faults;
        if (i % 16 == 15) {
          query.deadline = util::Deadline::after_micros(0.0);  // pre-expired
        }
        sent.fetch_add(1, std::memory_order_relaxed);
        (void)service.answer(query);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true, std::memory_order_relaxed);
  chaos.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, kThreads * kRounds);
  EXPECT_EQ(stats.pristine + stats.fault_aware, stats.queries);
  EXPECT_EQ(stats.guaranteed + stats.best_effort + stats.disconnected +
                stats.shed + stats.timed_out + stats.invalid,
            stats.queries);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GE(stats.timed_out, kThreads * (kRounds / 16));  // the pre-expired
}

}  // namespace
}  // namespace hhc::query
