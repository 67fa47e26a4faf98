// Process-wide metric registry of named lock-free counters, and the
// striped log-linear histogram.
//
// The hot-path types are deliberately header-inline so that ANY layer —
// including hhc_core, which hhc_obs's exporters link against — can record
// metrics without introducing a library cycle: recording needs no symbol
// from hhc_obs, only the exporters (to_csv/to_json, Chrome traces) live in
// the compiled library.
//
// Usage pattern on a hot path: resolve the counter ONCE (registration takes
// a mutex; a function-local static amortizes it to one lookup per site),
// then update through the reference — a single relaxed atomic op:
//
//   static obs::Counter& constructions =
//       obs::MetricRegistry::global().counter("construct.calls");
//   constructions.inc();
//
// Histogram is the one latency distribution of the codebase: PathService's
// per-outcome answer latency records into it, and obs::stage_rows() folds
// drained trace events into its Snapshot layout. Each recording thread
// writes its own cache-line-aligned stripe (util::Striped), so a record
// never touches a line another thread writes; snapshot() folds the stripes.
// Buckets are log-linear, 8 per power of two (<= 12.5% relative error).
// Percentiles read off upper bucket edges (conservative), skip empty
// leading buckets (p = 0 reports the first NON-empty bucket's edge), and
// share sim::percentile's error semantics: out-of-range p and an empty
// histogram throw std::invalid_argument.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/striped.hpp"

namespace hhc::core {
struct StatRow;
}  // namespace hhc::core

namespace hhc::obs {

/// Monotonic event count. All operations are wait-free relaxed atomics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log-linear histogram recorded into per-thread stripes.
///
/// Bucket layout: bucket 0 holds everything below 2^kMinExponent (zero,
/// negatives and NaN included); buckets 1 .. kBuckets - 2 split each power
/// of two in [2^kMinExponent, 2^kMaxExponent) into 2^kSubBits equal
/// sub-buckets, indexed straight from the double's exponent and top
/// kSubBits mantissa bits; the top bucket holds everything from
/// 2^kMaxExponent up. A sub-bucket [lo, hi) has hi / lo <= 9 / 8, so an
/// upper edge overstates any sample in it by at most 12.5%.
///
/// Writes: record() resolves the calling thread's Stripe (one TLS lookup,
/// see util/striped.hpp), bumps one bucket and updates a running max, all
/// on memory no other thread writes, so plain relaxed loads and stores do
/// it. snapshot() folds every stripe under the histogram's mutex; stripes
/// of exited threads stay owned by the histogram, so their counts survive.
/// reset() starts a new epoch and never writes a stripe.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kMinExponent = -10;  // 2^-10 µs ≈ 1 ps
  static constexpr int kMaxExponent = 30;   // 2^30 µs ≈ 18 min
  static constexpr std::size_t kBuckets =
      2 + (static_cast<std::size_t>(kMaxExponent - kMinExponent) << kSubBits);
  /// 2^kMinExponent and 2^kMaxExponent: the log-linear range.
  static constexpr double kLowest = std::bit_cast<double>(
      static_cast<std::uint64_t>(1023 + kMinExponent) << 52);
  static constexpr double kHighest = std::bit_cast<double>(
      static_cast<std::uint64_t>(1023 + kMaxExponent) << 52);

  struct Snapshot {
    std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(kBuckets);
    std::uint64_t count = 0;  // always the sum of `buckets`
    double max_value = 0.0;

    /// Upper edge of the bucket holding the ceil(p * count)-th smallest
    /// sample (conservative: >= the sample, by at most 12.5% inside the
    /// log-linear range); the top bucket reports max_value. p = 0 reports
    /// the first non-empty bucket. Throws std::invalid_argument when empty
    /// or when p is outside [0, 1] (NaN included), like sim::percentile.
    [[nodiscard]] double percentile(double p) const {
      if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("Histogram: percentile p outside [0, 1]");
      }
      if (count == 0) {
        throw std::invalid_argument("Histogram: percentile of no samples");
      }
      // The clamp to >= 1 is what skips empty leading buckets at p = 0.
      auto target =
          static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count)));
      if (target == 0) target = 1;
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b + 1 < buckets.size(); ++b) {
        cumulative += buckets[b];
        if (cumulative >= target) return upper_edge(b);
      }
      return std::max(max_value, kHighest);
    }

    /// Adds another snapshot's samples (e.g. per-outcome histograms).
    void merge(const Snapshot& other) {
      for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
      count += other.count;
      max_value = std::max(max_value, other.max_value);
    }
  };

  /// Bucket index for a sample (see the class comment).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept {
    if (!(value >= kLowest)) return 0;
    if (value >= kHighest) return kBuckets - 1;
    return static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(value) >> kMantissaShift) - kIndexBias);
  }

  /// Exclusive upper edge of bucket b < kBuckets - 1 (2^kMinExponent for
  /// bucket 0): the bit pattern of the next bucket's lower edge.
  [[nodiscard]] static double upper_edge(std::size_t b) noexcept {
    return std::bit_cast<double>((b + 1 + kIndexBias) << kMantissaShift);
  }

  /// One thread's buckets and running max. Single writer (the owning
  /// thread); any thread may fold it. PathService embeds stripes in its own
  /// per-thread cell so an answer resolves one TLS slot for all telemetry.
  class Stripe {
   public:
    void record(double value) noexcept {
      util::stripe_add(buckets_[bucket_of(value)]);
      // NaN and non-positive samples never become the max.
      if (value > max_.load(std::memory_order_relaxed)) {
        max_.store(value, std::memory_order_relaxed);
      }
    }

    void add_to(Snapshot& snap) const noexcept {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = buckets_[b].load(std::memory_order_relaxed);
        snap.buckets[b] += n;
        snap.count += n;
      }
      snap.max_value =
          std::max(snap.max_value, max_.load(std::memory_order_relaxed));
    }

   private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<double> max_{0.0};
  };

  /// Thread-safe; wait-free after this thread's first record.
  void record(double value) noexcept { stripes_.local().record(value); }

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot snap;
    stripes_.for_each([&snap](const Stripe& stripe) { stripe.add_to(snap); });
    return snap;
  }

  /// Zeroes the histogram without writing any stripe (see
  /// util::Striped::reset()); a record racing the reset lands before or
  /// after it.
  void reset() noexcept { stripes_.reset(); }

 private:
  // bits >> kMantissaShift is (biased exponent << kSubBits) | sub-bucket;
  // the bias maps 2^kMinExponent to bucket 1.
  static constexpr int kMantissaShift = 52 - kSubBits;
  static constexpr std::uint64_t kIndexBias =
      (static_cast<std::uint64_t>(1023 + kMinExponent) << kSubBits) - 1;

  util::Striped<Stripe> stripes_;
};

/// Name-sorted point-in-time view of every registered counter. Render
/// with to_csv()/to_json() (compiled in hhc_obs — they share core::io's
/// unified StatRow schema, so registry exports, cache stats, and service
/// stats all land in one table shape).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// The snapshot as unified stat rows: one scalar per counter, under
  /// section "counter".
  [[nodiscard]] std::vector<core::StatRow> rows() const;

  /// core::stat_rows_csv / core::stat_rows_json over rows().
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

/// The process-wide counter registry. Registration (name -> counter) takes
/// a mutex and allocates once per name; the returned references are stable
/// for the registry's lifetime, so hot paths cache them (see header
/// comment) and never touch the lock again.
class MetricRegistry {
 public:
  /// The process-wide instance (function-local static: header-inline so
  /// every library sees the same registry without linking hhc_obs).
  [[nodiscard]] static MetricRegistry& global() {
    static MetricRegistry registry;
    return registry;
  }

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name) {
    std::lock_guard lock{mutex_};
    auto& entry = counters_[name];
    if (entry == nullptr) entry = std::make_unique<Counter>();
    return *entry;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot snap;
    std::lock_guard lock{mutex_};
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->get());
    return snap;
  }

  /// Zeroes every counter, KEEPING registrations (cached references stay
  /// valid). Used between benchmark passes and in tests.
  void reset() {
    std::lock_guard lock{mutex_};
    for (const auto& [name, c] : counters_) c->reset();
  }

 private:
  // std::map keeps snapshot output name-sorted; unique_ptr keeps counter
  // addresses stable across rebalancing.
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace hhc::obs
