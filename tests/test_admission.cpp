#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "query/admission.hpp"
#include "util/deadline.hpp"

namespace hhc::query {
namespace {

using util::CancellationToken;
using util::Deadline;

TEST(AdmissionGate, DefaultConfigAdmitsEverything) {
  AdmissionGate gate{AdmissionConfig{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
  }
  // No release() calls needed: the unlimited gate never claimed a slot.
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(AdmissionGate, RejectPolicyShedsBeyondTheBound) {
  AdmissionConfig config;
  config.max_in_flight = 2;
  AdmissionGate gate{config};

  EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.in_flight(), 2u);

  gate.release();
  EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
  gate.release();
  gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(AdmissionGate, ReleaseOnAnotherThreadFreesASlot) {
  // admit() and release() pair by count, not by thread: slots claimed on
  // one thread and given back on another leave the gate empty and open.
  AdmissionConfig config;
  config.max_in_flight = 3;
  AdmissionGate gate{config};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
  }
  EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kShed);

  std::thread other{[&gate] {
    gate.release();
    gate.release();
  }};
  other.join();
  EXPECT_EQ(gate.in_flight(), 1u);
  gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);

  std::thread again{[&gate] {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
    }
    EXPECT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kShed);
  }};
  again.join();
  for (int i = 0; i < 3; ++i) gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);
}

// The gate classifies an arrival that is already expired or cancelled,
// before it reads any slot: a free slot does not admit it, and a full
// gate reports it timed out rather than shed.
TEST(AdmissionGate, QueuePolicyTimesOutOnExpiredDeadline) {
  for (const std::size_t bound : {std::size_t{0}, std::size_t{1}}) {
    AdmissionConfig config;
    config.max_in_flight = bound;
    AdmissionGate gate{config};
    const Deadline expired = Deadline::after_micros(0.0);

    EXPECT_EQ(gate.admit(expired, nullptr), AdmissionVerdict::kTimedOut)
        << "bound=" << bound;
    EXPECT_EQ(gate.in_flight(), 0u);
    // A live deadline is admitted as usual (and fills a bounded gate).
    ASSERT_EQ(gate.admit(Deadline::after_micros(1e9), nullptr),
              AdmissionVerdict::kAdmitted);
    EXPECT_EQ(gate.admit(expired, nullptr), AdmissionVerdict::kTimedOut)
        << "bound=" << bound;
    gate.release();
    EXPECT_EQ(gate.in_flight(), 0u);
  }
}

TEST(AdmissionGate, QueuePolicyHonorsCancellation) {
  for (const std::size_t bound : {std::size_t{0}, std::size_t{1}}) {
    AdmissionConfig config;
    config.max_in_flight = bound;
    AdmissionGate gate{config};
    CancellationToken token;
    token.cancel();

    EXPECT_EQ(gate.admit(Deadline{}, &token), AdmissionVerdict::kTimedOut)
        << "bound=" << bound;
    ASSERT_EQ(gate.admit(Deadline{}, nullptr), AdmissionVerdict::kAdmitted);
    EXPECT_EQ(gate.admit(Deadline{}, &token), AdmissionVerdict::kTimedOut)
        << "bound=" << bound;
    gate.release();

    token.reset();
    EXPECT_EQ(gate.admit(Deadline{}, &token), AdmissionVerdict::kAdmitted);
    gate.release();
    EXPECT_EQ(gate.in_flight(), 0u);
  }
}

TEST(AdmissionGate, ConcurrentAdmitsNeverExceedTheBound) {
  constexpr std::size_t kBound = 4;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 2000;

  AdmissionConfig config;
  config.max_in_flight = kBound;
  AdmissionGate gate{config};

  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (gate.admit(Deadline{}, nullptr) != AdmissionVerdict::kAdmitted) {
          continue;
        }
        const std::size_t now = active.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        admitted.fetch_add(1);
        active.fetch_sub(1);
        gate.release();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(admitted.load(), 0u);
  EXPECT_LE(peak.load(), kBound);
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(CircuitBreaker, DisabledBreakerNeverShortCircuits) {
  CircuitBreaker breaker{0};
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 10; ++i) breaker.record(1, 2, /*disconnected=*/true);
  EXPECT_FALSE(breaker.should_short_circuit(1, 2));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, OpensAtTheThresholdWithinOneEpoch) {
  CircuitBreaker breaker{3};
  breaker.record(1, 2, true);
  breaker.record(1, 2, true);
  EXPECT_FALSE(breaker.should_short_circuit(1, 2));  // streak 2 < 3
  breaker.record(1, 2, true);
  EXPECT_TRUE(breaker.should_short_circuit(1, 2));
  EXPECT_EQ(breaker.trips(), 1u);
  // A different pair is unaffected.
  EXPECT_FALSE(breaker.should_short_circuit(2, 1));
}

TEST(CircuitBreaker, SuccessResetsTheStreak) {
  CircuitBreaker breaker{2};
  breaker.record(7, 9, true);
  breaker.record(7, 9, false);  // connectivity came back mid-streak
  breaker.record(7, 9, true);
  EXPECT_FALSE(breaker.should_short_circuit(7, 9));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, EpochAdvanceGivesThePairAFreshChance) {
  CircuitBreaker breaker{2};
  breaker.record(3, 4, true);
  breaker.record(3, 4, true);
  ASSERT_TRUE(breaker.should_short_circuit(3, 4));
  // The fault landscape changed: the open breaker from the old epoch must
  // not short-circuit new queries, and the streak restarts. The advance is
  // wait-free; the stale entry resets lazily on its next touch.
  breaker.advance_fault_epoch();
  EXPECT_EQ(breaker.fault_epoch(), 1u);
  EXPECT_FALSE(breaker.should_short_circuit(3, 4));
  breaker.record(3, 4, true);
  EXPECT_FALSE(breaker.should_short_circuit(3, 4));
  breaker.record(3, 4, true);
  EXPECT_TRUE(breaker.should_short_circuit(3, 4));
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreaker, ConcurrentRecordsReachTheThresholdOnce) {
  CircuitBreaker breaker{1};  // every disconnect opens
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        breaker.record(t, t + 1, true);
        (void)breaker.should_short_circuit(t, t + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // One trip per pair: the open breaker must not re-trip on every record.
  EXPECT_EQ(breaker.trips(), kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(breaker.should_short_circuit(t, t + 1));
  }
}

}  // namespace
}  // namespace hhc::query
