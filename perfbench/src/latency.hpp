// Log-linear latency bins with < 1% relative resolution.
//
// obs::Histogram's power-of-two buckets cannot show a 10% change, so the
// benchmark keeps its own caller-side distribution: values below 256 ns are
// exact, and every octave above is split into 128 equal sub-bins, so a bin
// is at most 1/128 (0.78%) of its value wide and a percentile read from it
// is off by less than that. One instance per caller thread (no shared
// writes while measuring); merge() folds them afterwards.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyBins {
 public:
  static constexpr unsigned kSubBits = 7;  // 128 sub-bins per octave
  static constexpr std::size_t kBins = std::size_t{48} << kSubBits;

  LatencyBins() : counts_(kBins, 0) {}

  void record(std::uint64_t nanos) noexcept {
    ++counts_[std::min(index_of(nanos), kBins - 1)];
    ++count_;
  }

  void merge(const LatencyBins& other) noexcept {
    for (std::size_t i = 0; i < kBins; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// The ceil(p * count)-th smallest sample (ns), placed inside its bin by
  /// linear interpolation over the bin's samples; 0 when empty.
  [[nodiscard]] double percentile_ns(double p) const noexcept {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBins; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return lower_edge(i) + within * width(i);
      }
      seen += counts_[i];
    }
    return lower_edge(kBins - 1);
  }

 private:
  // v < 256 maps to itself; above, e = bit_width(v) - 8 and the index is
  // (e << 7) + (v >> e), whose low 8 bits are the top 8 bits of v.
  [[nodiscard]] static std::size_t index_of(std::uint64_t v) noexcept {
    const auto width = static_cast<int>(std::bit_width(v));
    const int e = width > 8 ? width - 8 : 0;
    return (static_cast<std::size_t>(e) << kSubBits) +
           static_cast<std::size_t>(v >> e);
  }

  // Bin i >= 256 holds [m << e, (m + 1) << e) with e = (i >> 7) - 1 and
  // m = i - (e << 7) in [128, 256); bins below 256 hold one value each.
  [[nodiscard]] static int exponent(std::size_t index) noexcept {
    return index < (std::size_t{2} << kSubBits)
               ? 0
               : static_cast<int>(index >> kSubBits) - 1;
  }
  [[nodiscard]] static double lower_edge(std::size_t index) noexcept {
    const int e = exponent(index);
    const std::size_t mantissa = index - (static_cast<std::size_t>(e) << kSubBits);
    return std::ldexp(static_cast<double>(mantissa), e);
  }
  [[nodiscard]] static double width(std::size_t index) noexcept {
    return std::ldexp(1.0, exponent(index));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
