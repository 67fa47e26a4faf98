// Benchmark-side tracing: spans recorded by the benchmark's own code around
// each call it makes into one of the program's public layers.
//
// A span is (name, start, end, parent, query id, reps). `reps` is the number
// of calls the span brackets: calls that take a few nanoseconds are timed in
// batches, because one steady_clock read costs about as much as the call.
// Each thread owns one SpanLog (no sharing while measuring); logs live in
// memory until the run ends, then write_spans() dumps them as CSV and
// self_times() derives each layer's self time: a span's duration minus the
// part of it its direct children cover, divided by reps.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  static constexpr std::uint32_t kNoParent = static_cast<std::uint32_t>(-1);

  const char* name = nullptr;  // static storage duration
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  // index in the same log
  std::uint32_t reps = 1;
  std::uint64_t query = 0;  // children inherit their root's query id
};

/// One thread's spans. Capacity is reserved up front, so recording never
/// allocates; full() tells a caller loop to stop before a query's span tree
/// could overflow it.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_{capacity} {
    // resize() writes every page now, so tracing pays no page faults.
    spans_.resize(capacity);
    spans_.clear();
    stack_.reserve(kTreeRoom);
  }

  [[nodiscard]] bool full() const noexcept {
    return spans_.size() + kTreeRoom > capacity_;
  }

  /// Opens a span under the innermost open one; returns its index.
  std::uint32_t open(const char* name, std::uint64_t query,
                     std::uint32_t reps = 1) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    Span span{.name = name, .reps = reps, .query = query};
    if (!stack_.empty()) {
      span.parent = stack_.back();
      span.query = spans_[span.parent].query;
    }
    spans_.push_back(span);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(std::uint32_t index) noexcept {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Relabels a span once its outcome is known (e.g. scan vs fallback).
  void rename(std::uint32_t index, const char* name) noexcept {
    spans_[index].name = name;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  static constexpr std::size_t kTreeRoom = 8;  // spans one query may open

  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t query = 0,
             std::uint32_t reps = 1)
      : log_{log}, index_{log != nullptr ? log->open(name, query, reps) : 0} {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Self time per call (ns) of every span, grouped by span name.
[[nodiscard]] inline std::map<std::string, std::vector<double>> self_times(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, std::vector<double>> by_name;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::uint64_t> covered(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent != Span::kNoParent) {
        covered[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double self = static_cast<double>(span.end_ns - span.start_ns) -
                          static_cast<double>(covered[i]);
      by_name[span.name].push_back(self / span.reps);
    }
  }
  return by_name;
}

/// Median of `values` (0 when empty).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(values.begin(), mid)) / 2.0;
}

/// Writes every span as one CSV row:
/// log,index,name,start_ns,end_ns,parent,query,reps with times relative to
/// the earliest span. Returns false when the file cannot be written.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::uint64_t origin = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::ofstream out{path};
  out << "log,index,name,start_ns,end_ns,parent,query,reps\n";
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << l << ',' << i << ',' << s.name << ',' << s.start_ns - origin
          << ',' << s.end_ns - origin << ',';
      if (s.parent != Span::kNoParent) out << s.parent;
      out << ',' << s.query << ',' << s.reps << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
