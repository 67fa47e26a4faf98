// The scoped-tracing machinery: disabled spans record nothing, enabled
// spans land on per-thread rings (bounded, drop-oldest, every loss
// counted), drains merge and sort across threads, stage_rows() summarizes
// a drain by stage, and the Chrome exporter emits the structure
// chrome://tracing expects. The multi-thread tests run under
// ThreadSanitizer in CI. All tests share the process-global Tracer, so
// each one starts with enable() (which drops prior events) and ends
// disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hhc::obs {
namespace {

class ObsTrace : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::disable();
    Tracer::clear();
  }
};

TEST_F(ObsTrace, DisabledSpansRecordNothing) {
  Tracer::enable();
  Tracer::disable();
  Tracer::clear();
  { TraceSpan span{"quiet"}; }
  EXPECT_TRUE(Tracer::drain().empty());
  EXPECT_EQ(Tracer::dropped(), 0u);
}

TEST_F(ObsTrace, EnabledSpanRecordsNameAndDuration) {
  Tracer::enable();
  {
    TraceSpan span{"work"};
  }
  Tracer::disable();
  const auto events = Tracer::drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "work");
}

TEST_F(ObsTrace, NestedSpansAreContained) {
  Tracer::enable();
  {
    TraceSpan outer{"outer"};
    { TraceSpan inner{"inner"}; }
  }
  Tracer::disable();
  auto events = Tracer::drain();
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs first, so it appears first only after sorting by start;
  // find each by name instead of relying on order.
  const auto by_name = [&](const char* name) {
    return std::find_if(events.begin(), events.end(), [&](const TraceEvent& e) {
      return std::string{e.name} == name;
    });
  };
  const auto outer = by_name("outer");
  const auto inner = by_name("inner");
  ASSERT_NE(outer, events.end());
  ASSERT_NE(inner, events.end());
  EXPECT_GE(inner->start_nanos, outer->start_nanos);
  EXPECT_LE(inner->start_nanos + inner->dur_nanos,
            outer->start_nanos + outer->dur_nanos);
}

TEST_F(ObsTrace, RingDropsOldestWhenFull) {
  Tracer::enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span{"s"};
  }
  Tracer::disable();
  EXPECT_EQ(Tracer::drain().size(), 4u);
  EXPECT_EQ(Tracer::dropped(), 6u);

  // The survivors are the NEWEST events: their start times must all be at
  // or after every dropped one's — verified by re-filling with two phases.
  Tracer::enable(/*events_per_thread=*/2);
  { TraceSpan span{"old"}; }
  { TraceSpan span{"old"}; }
  { TraceSpan span{"new"}; }
  { TraceSpan span{"new"}; }
  Tracer::disable();
  const auto events = Tracer::drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "new");
  EXPECT_STREQ(events[1].name, "new");
}

TEST_F(ObsTrace, ZeroCapacityRingCountsEveryDrop) {
  // A ring that keeps nothing still counts what it lost, so an empty drain
  // never passes for a quiet run.
  Tracer::enable(/*events_per_thread=*/0);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span{"lost"};
  }
  std::thread{[] { TraceSpan span{"lost"}; }}.join();
  Tracer::disable();
  EXPECT_TRUE(Tracer::drain().empty());
  EXPECT_EQ(Tracer::dropped(), 6u);
}

TEST_F(ObsTrace, EnableResetsBufferedEventsAndEpoch) {
  Tracer::enable();
  { TraceSpan span{"before"}; }
  Tracer::enable();  // restart: drops "before"
  { TraceSpan span{"after"}; }
  Tracer::disable();
  const auto events = Tracer::drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "after");
}

TEST_F(ObsTrace, ThreadsGetDistinctTids) {
  constexpr std::size_t kThreads = 4;
  Tracer::enable();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < 50; ++j) {
        TraceSpan span{"worker"};
      }
    });
  }
  for (auto& t : threads) t.join();
  Tracer::disable();

  const auto events = Tracer::drain();
  EXPECT_EQ(events.size(), kThreads * 50);
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), kThreads);

  // Drains are sorted by start time across all rings.
  const bool sorted = std::is_sorted(
      events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
        return a.start_nanos < b.start_nanos;
      });
  EXPECT_TRUE(sorted);
}

TEST_F(ObsTrace, ChromeExportShapesEvents) {
  Tracer::enable();
  { TraceSpan span{"alpha"}; }
  { TraceSpan span{"beta"}; }
  Tracer::disable();
  const auto events = Tracer::drain();
  const std::string json = to_chrome_trace_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);

  const std::string csv = to_trace_csv(events);
  EXPECT_NE(csv.find("name,tid,start_us,dur_us"), std::string::npos);
  EXPECT_NE(csv.find("alpha"), std::string::npos);
}

TEST_F(ObsTrace, StageRowsMatchDrainedEvents) {
  Tracer::enable();
  for (int i = 0; i < 40; ++i) {
    TraceSpan outer{"stage.outer"};
    volatile std::uint64_t sink = 0;
    for (int k = 0; k < 50 * i; ++k) sink = sink + static_cast<std::uint64_t>(k);
    { TraceSpan inner{"stage.inner"}; }
  }
  Tracer::disable();
  std::vector<TraceEvent> events = Tracer::drain();
  ASSERT_EQ(events.size(), 80u);
  // Synthetic durations from 0 to ~1 s reach buckets the spans above do not.
  static constexpr const char* kWide = "stage.wide";
  for (std::uint64_t k = 0; k < 300; ++k) {
    events.push_back(TraceEvent{kWide, k, k * k * k * 37, 7});
  }

  const std::vector<core::StatRow> rows = stage_rows(events);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "stage.inner");  // name-sorted
  EXPECT_EQ(rows[1].name, "stage.outer");
  EXPECT_EQ(rows[2].name, "stage.wide");
  for (const core::StatRow& row : rows) {
    Histogram reference;
    for (const TraceEvent& event : events) {
      if (row.name == event.name) {
        reference.record(static_cast<double>(event.dur_nanos) / 1e3);
      }
    }
    const Histogram::Snapshot want = reference.snapshot();
    EXPECT_EQ(row.section, "stage");
    EXPECT_EQ(row.kind, core::StatRow::Kind::kDist);
    EXPECT_EQ(row.count, want.count) << row.name;
    EXPECT_EQ(row.p50, want.percentile(0.50)) << row.name;
    EXPECT_EQ(row.p90, want.percentile(0.90)) << row.name;
    EXPECT_EQ(row.p99, want.percentile(0.99)) << row.name;
    EXPECT_EQ(row.max, want.max_value) << row.name;
  }
  EXPECT_EQ(rows[0].count, 40u);
  EXPECT_EQ(rows[2].count, 300u);
  EXPECT_TRUE(stage_rows({}).empty());
}

TEST_F(ObsTrace, ConcurrentSpansWhileDraining) {
  constexpr std::size_t kThreads = 4;
  Tracer::enable(/*events_per_thread=*/256);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t i = 0; i < kThreads; ++i) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        TraceSpan span{"hot"};
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    const auto events = Tracer::drain();
    EXPECT_LE(events.size(), kThreads * 256 + kThreads);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  Tracer::disable();
}

}  // namespace
}  // namespace hhc::obs
