// Concurrent admission suite (PR 8) — TSan's view of the shed-fast path.
//
// The lock-free gate redesign moved admission decisions onto relaxed
// atomics and per-thread striped cells; these tests race every combination
// that matters — answers against sheds, epoch advances against breaker
// records, stats() folds against completion feedback — and then assert the
// EXACT accounting invariants once the writers quiesce:
//
//   * no leaked in-flight credits: in_flight() == 0 after every admitted
//     verdict has been released, across bounds, slot claims and the
//     half-open probe path;
//   * the outcome partition stays exact under concurrency;
//   * equal-sample EWMA folds converge to the sample exactly (the batch
//     fold's closed form is an identity for constant inputs).
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
        const AdmissionVerdict verdict = gate.admit(Deadline{}, nullptr);
        if (verdict == AdmissionVerdict::kAdmitted ||
            verdict == AdmissionVerdict::kAdmittedDegraded) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          if (rng.chance(0.5)) {
            gate.record_latency(static_cast<double>(1 + rng.below(200)));
          }
          gate.release();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return admitted.load();
}

TEST(AdmissionConcurrent, NoLeakedCreditsAcrossPoliciesAndBounds) {
  // Plain bounded gates, and gates whose armed detector makes every
  // overload decision a probe admitted past the bound: the hammer's
  // 1-200 us samples swing the EWMA across the 100 us threshold, so slot
  // claims and probe admissions interleave and release each other.
  for (const bool probing : {false, true}) {
    for (const std::size_t bound : {std::size_t{1}, std::size_t{4}}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        AdmissionConfig config;
        config.max_in_flight = bound;
        if (probing) {
          config.ewma_alpha = 1.0;
          config.overload_latency_us = 100.0;
          config.probe_interval = 1;
        }
        AdmissionGate gate{config};
        if (probing) gate.record_latency(1000.0);  // start overloaded
        const std::uint64_t admitted = hammer_gate(gate, 8, 500, seed);
        EXPECT_GT(admitted, 0u);
        EXPECT_EQ(gate.in_flight(), 0u)
            << "leaked credits: probing=" << probing << " bound=" << bound
            << " seed=" << seed;
      }
    }
  }
}

TEST(AdmissionConcurrent, NoLeakedCreditsOnTheProbePath) {
  // An overloaded gate sheds without shared writes but admits every
  // probe_interval-th decision as a probe. A probe claims no slot: it is
  // counted past the bound in overflow_, and a release gives overflow back
  // before any slot, so the probe path must balance its credits exactly.
  AdmissionConfig config;
  config.max_in_flight = 2;
  config.ewma_alpha = 1.0;
  config.overload_latency_us = 10.0;
  config.probe_interval = 8;
  AdmissionGate gate{config};
  gate.record_latency(1000.0);
  ASSERT_TRUE(gate.overloaded());

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        const AdmissionVerdict verdict = gate.admit(Deadline{}, nullptr);
        if (verdict == AdmissionVerdict::kAdmitted ||
            verdict == AdmissionVerdict::kAdmittedDegraded) {
          // Keep the gate overloaded: probes report slow completions.
          gate.record_latency(1000.0);
          gate.release();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(gate.in_flight(), 0u);
  EXPECT_TRUE(gate.overloaded());  // 1000 us probes kept it shut
}

TEST(AdmissionConcurrent, ConcurrentEqualSamplesFoldToTheSampleExactly) {
  // Every completion reports exactly 100 us. The decision-epoch batch fold
  // applies ewma' = u + (ewma - u)(1-a)^n, which is an identity at u = 100
  // once seeded — so ANY interleaving of folds must read back exactly 100.
  AdmissionConfig config;
  config.ewma_alpha = 0.25;
  config.overload_latency_us = 500.0;  // armed: folds race on real traffic
  AdmissionGate gate{config};

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) gate.record_latency(100.0);
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_DOUBLE_EQ(gate.ewma_latency_us(), 100.0);
  EXPECT_FALSE(gate.overloaded());
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
  config.admission.ewma_alpha = 0.5;
  config.admission.overload_latency_us = 50.0;
  config.admission.probe_interval = 4;
  PathService service{net, config};

  core::FaultModel faults;
  faults.fail_node(net.node_count() - 1);

  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 400;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> stop{false};

  std::thread chaos{[&] {
    // Epoch advances and stats() folds racing the answer threads: the
    // fold-side mutexes and striped cells must tolerate mid-flight reads.
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
