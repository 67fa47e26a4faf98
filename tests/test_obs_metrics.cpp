// The counter registry and the lock-free histogram. The histogram tests pin
// the log-linear bucket geometry (8 sub-buckets per power of two between
// 2^-10 and 2^30, an underflow and a saturating top bucket), its 12.5%
// relative error bound, and the percentile semantics: p = 0 skips empty
// leading buckets, out-of-range p and empty histograms throw — the pre-obs
// LatencyHistogram silently reported 1µs for both. The concurrent tests
// cover the per-thread stripes (exited threads' counts survive, reset
// racing writers) and run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hhc::obs {
namespace {

TEST(ObsCounter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.get(), 42u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket 0: everything below 2^-10. Then 8 equal sub-buckets per power
  // of two: [1, 1.125) is the first sub-bucket of 2^0, [1.875, 2) its last.
  const std::size_t one = Histogram::bucket_of(1.0);
  EXPECT_EQ(one, 1u + 10u * 8u);
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::nextafter(0x1p-10, 0.0)), 0u);
  EXPECT_EQ(Histogram::bucket_of(0x1p-10), 1u);
  EXPECT_EQ(Histogram::bucket_of(1.124), one);
  EXPECT_EQ(Histogram::bucket_of(1.125), one + 1);
  EXPECT_EQ(Histogram::bucket_of(1.999), one + 7);
  EXPECT_EQ(Histogram::bucket_of(2.0), one + 8);
  EXPECT_EQ(Histogram::bucket_of(2.25), one + 9);
  EXPECT_EQ(Histogram::upper_edge(0), 0x1p-10);
  EXPECT_EQ(Histogram::upper_edge(one), 1.125);
  EXPECT_EQ(Histogram::upper_edge(one + 7), 2.0);
  EXPECT_EQ(Histogram::upper_edge(one + 8), 2.25);
  // Every log-linear bucket holds exactly [previous edge, its edge), and
  // consecutive edges grow by 1/8 of the power of two they sit in.
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    const double lower = Histogram::upper_edge(b - 1);
    const double upper = Histogram::upper_edge(b);
    EXPECT_EQ(Histogram::bucket_of(lower), b) << "lower edge of bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(std::nextafter(upper, 0.0)), b)
        << "upper edge of bucket " << b;
    const double octave = std::ldexp(1.0, std::ilogb(lower));
    EXPECT_EQ(upper - lower, octave / 8.0) << "width of bucket " << b;
  }
  EXPECT_EQ(Histogram::upper_edge(Histogram::kBuckets - 2), 0x1p30);
}

TEST(ObsHistogram, UpperEdgeWithinOneEighthOfEverySample) {
  // Seeded log-uniform samples over [1e-3, 1e6] µs: the reported edge is
  // an upper bound, and at most 12.5% above the sample.
  util::Xoshiro256 rng{0x10C11AE};
  for (int i = 0; i < 20000; ++i) {
    const double value = std::pow(10.0, -3.0 + 9.0 * rng.uniform01());
    Histogram h;
    h.record(value);
    const double edge = h.snapshot().percentile(0.5);
    EXPECT_GE(edge, value) << value;
    EXPECT_LE(edge, 1.125 * value) << value;
  }
}

TEST(ObsHistogram, NanAndNegativeClampToBucketZero) {
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-std::numeric_limits<double>::infinity()), 0u);

  Histogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(-123.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max_value, 0.0);  // NaN/negatives never become the max
}

TEST(ObsHistogram, TopBucketSaturates) {
  const std::size_t top = Histogram::kBuckets - 1;
  EXPECT_EQ(Histogram::bucket_of(std::nextafter(0x1p30, 0.0)), top - 1);
  EXPECT_EQ(Histogram::bucket_of(0x1p30), top);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 200)), top);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()), top);

  Histogram h;
  h.record(std::ldexp(1.0, 100));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.buckets[top], 1u);
  EXPECT_EQ(snap.max_value, std::ldexp(1.0, 100));
  // A percentile landing in the saturated bucket reports the max, which
  // keeps it an upper bound.
  EXPECT_EQ(snap.percentile(1.0), std::ldexp(1.0, 100));
}

// ---------------------------------------------------------------------------
// Percentile semantics
// ---------------------------------------------------------------------------

TEST(ObsHistogram, PercentileSkipsEmptyLeadingBuckets) {
  // The historical bug: with nothing in bucket 0, p = 0 computed target = 0,
  // which the empty bucket 0 "satisfied", reporting a phantom edge.
  Histogram h;
  h.record(100.0);  // [96, 104): 2^6 * (1 + 4/8) .. 2^6 * (1 + 5/8)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.percentile(0.0), 104.0);
  EXPECT_EQ(snap.percentile(0.5), 104.0);
  EXPECT_EQ(snap.percentile(1.0), 104.0);
}

TEST(ObsHistogram, PercentileAtMedianAndTail) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(1.5);    // [1.5, 1.625)
  for (int i = 0; i < 49; ++i) h.record(10.0);   // [10, 11)
  h.record(1000.0);                              // [960, 1024)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.percentile(0.0), 1.625);  // first non-empty bucket's edge
  EXPECT_EQ(snap.percentile(0.5), 1.625);  // sample 50 still in [1.5, 1.625)
  EXPECT_EQ(snap.percentile(0.51), 11.0);  // sample 51 is in [10, 11)
  EXPECT_EQ(snap.percentile(0.99), 11.0);
  EXPECT_EQ(snap.percentile(1.0), 1024.0);
}

TEST(ObsHistogram, PercentileErrorSemantics) {
  Histogram empty;
  EXPECT_THROW((void)empty.snapshot().percentile(0.5), std::invalid_argument);

  Histogram h;
  h.record(1.0);
  const auto snap = h.snapshot();
  EXPECT_THROW((void)snap.percentile(-0.01), std::invalid_argument);
  EXPECT_THROW((void)snap.percentile(1.01), std::invalid_argument);
  EXPECT_THROW(
      (void)snap.percentile(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(ObsHistogram, ResetZeroesEverything) {
  Histogram h;
  h.record(5.0);
  h.reset();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.max_value, 0.0);
}

TEST(ObsHistogram, ResetEmptiesEveryStripeUntilItsOwnerRecordsAgain) {
  Histogram h;
  std::thread{[&h] { h.record(7.0); }}.join();  // an exited thread's stripe
  h.record(2.0);
  h.record(2.0);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().max_value, 0.0);
  h.record(3.0);  // this thread's stripe starts over
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.buckets[Histogram::bucket_of(2.0)], 0u);
  EXPECT_EQ(snap.buckets[Histogram::bucket_of(3.0)], 1u);
  EXPECT_EQ(snap.max_value, 3.0);
}

TEST(ObsHistogram, SnapshotsMerge) {
  Histogram a;
  Histogram b;
  a.record(1.0);
  b.record(3.0);
  b.record(3.0);
  auto snap = a.snapshot();
  snap.merge(b.snapshot());
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets[Histogram::bucket_of(3.0)], 2u);
  EXPECT_EQ(snap.max_value, 3.0);
  EXPECT_EQ(snap.percentile(0.0), 1.125);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ReturnsStableReferencesPerName) {
  MetricRegistry registry;
  Counter& a = registry.counter("alpha");
  Counter& b = registry.counter("alpha");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(registry.counter("alpha").get(), 3u);
}

TEST(ObsRegistry, SnapshotIsNameSortedAndComplete) {
  MetricRegistry registry;
  registry.counter("zeta").inc(1);
  registry.counter("beta").inc(2);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "beta");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
}

TEST(ObsRegistry, ResetKeepsRegistrationsAndReferences) {
  MetricRegistry registry;
  Counter& c = registry.counter("events");
  c.inc(9);
  registry.reset();
  EXPECT_EQ(c.get(), 0u);  // same object, zeroed
  c.inc();
  EXPECT_EQ(registry.counter("events").get(), 1u);
  EXPECT_EQ(registry.snapshot().counters.size(), 1u);
}

TEST(ObsRegistry, GlobalIsASingleInstance) {
  EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

TEST(ObsRegistry, RenderersIncludeEveryMetric) {
  MetricRegistry registry;
  registry.counter("hits").inc(7);
  (void)registry.counter("idle");  // registered, never incremented

  const MetricsSnapshot snap = registry.snapshot();
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,hits,7"), std::string::npos);
  EXPECT_NE(csv.find("counter,idle,0"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"idle\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan job builds this binary)
// ---------------------------------------------------------------------------

TEST(ObsStress, ConcurrentRecordingLosesNothing) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  MetricRegistry registry;
  Histogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&registry, &h, id] {
      // Half the threads race the registration lookup itself.
      Counter& c = registry.counter(id % 2 == 0 ? "even" : "odd");
      for (std::size_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<double>(i % 512));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(registry.counter("even").get(), kThreads / 2 * kPerThread);
  EXPECT_EQ(registry.counter("odd").get(), kThreads / 2 * kPerThread);
  EXPECT_EQ(h.snapshot().count, kThreads * kPerThread);
}

TEST(ObsStress, SnapshotWhileRecording) {
  MetricRegistry registry;
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread writer{[&] {
    Counter& c = registry.counter("c");
    while (!stop.load(std::memory_order_relaxed)) {
      h.record(3.0);
      c.inc();
    }
  }};
  std::uint64_t last_count = 0;
  std::uint64_t last_calls = 0;
  for (int i = 0; i < 200; ++i) {
    const auto snap = h.snapshot();
    // Counts only ever grow, and each snapshot is internally consistent
    // enough that the histogram count equals the sum of its buckets.
    std::uint64_t sum = 0;
    for (const auto b : snap.buckets) sum += b;
    EXPECT_EQ(sum, snap.count);
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
    const auto counters = registry.snapshot().counters;
    if (!counters.empty()) {
      EXPECT_GE(counters[0].second, last_calls);
      last_calls = counters[0].second;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(ObsStress, CountsFromExitedThreadsSurvive) {
  // Stripes belong to the histogram, not the thread: counts recorded by
  // threads that have since exited stay in every later snapshot.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 1000;
  Histogram h;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (std::size_t id = 0; id < kThreads; ++id) {
      threads.emplace_back([&h, id] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          h.record(static_cast<double>(id + 1));
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2 * kThreads * kPerThread);
  for (std::size_t id = 0; id < kThreads; ++id) {
    EXPECT_EQ(snap.buckets[Histogram::bucket_of(static_cast<double>(id + 1))],
              2 * kPerThread);
  }
  EXPECT_EQ(snap.max_value, static_cast<double>(kThreads));
}

TEST(ObsStress, ResetRacingWritersKeepsSnapshotsConsistent) {
  // reset() zeroes stripes while their owners keep recording; whatever a
  // racing snapshot sees, its count is the sum of its buckets, and once the
  // writers stop a final reset leaves nothing behind.
  constexpr std::size_t kWriters = 4;
  Histogram h;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> started{0};
  std::vector<std::thread> writers;
  for (std::size_t id = 0; id < kWriters; ++id) {
    writers.emplace_back([&h, &stop, &started, id] {
      std::uint64_t i = 0;
      h.record(1.0);
      started.fetch_add(1, std::memory_order_relaxed);
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(static_cast<double>((i++ + id) % 4096) / 8.0);
      }
    });
  }
  while (started.load(std::memory_order_relaxed) < kWriters) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 0) h.reset();
    const auto snap = h.snapshot();
    std::uint64_t sum = 0;
    for (const auto b : snap.buckets) sum += b;
    EXPECT_EQ(sum, snap.count);
    EXPECT_EQ(snap.buckets.size(), Histogram::kBuckets);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

}  // namespace
}  // namespace hhc::obs
