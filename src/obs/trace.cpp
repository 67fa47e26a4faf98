#include "obs/trace.hpp"

#include <algorithm>
#include <map>

#include "core/io.hpp"
#include "obs/metrics.hpp"

namespace hhc::obs {

std::vector<TraceEvent> Tracer::drain() {
  detail::TraceState& state = detail::trace_state();
  std::vector<TraceEvent> events;
  {
    std::lock_guard lock{state.mutex};
    for (const auto& ring : state.rings) ring->snapshot(events);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& lhs, const TraceEvent& rhs) {
              return lhs.start_nanos < rhs.start_nanos;
            });
  return events;
}

void Tracer::clear() {
  // Rings are immutable from the collector's side (only their owner thread
  // writes): dropping events means starting a fresh generation, exactly
  // like enable() but keeping the configured capacity.
  detail::TraceState& state = detail::trace_state();
  {
    std::lock_guard lock{state.mutex};
    state.rings.clear();
    state.next_tid = 0;
  }
  state.generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t Tracer::dropped() {
  detail::TraceState& state = detail::trace_state();
  std::uint64_t total = 0;
  std::lock_guard lock{state.mutex};
  for (const auto& ring : state.rings) total += ring->dropped();
  return total;
}

std::string to_chrome_trace_json(const std::vector<TraceEvent>& events) {
  core::JsonWriter json;
  json.begin_object().key("traceEvents").begin_array();
  for (const TraceEvent& event : events) {
    json.begin_object()
        .key("name").value(event.name)
        .key("cat").value("hhc")
        .key("ph").value("X")
        .key("ts").value(static_cast<double>(event.start_nanos) / 1e3)
        .key("dur").value(static_cast<double>(event.dur_nanos) / 1e3)
        .key("pid").value(0)
        .key("tid").value(static_cast<std::uint64_t>(event.tid))
        .end_object();
  }
  json.end_array().key("displayTimeUnit").value("ms").end_object();
  return json.str();
}

std::string to_trace_csv(const std::vector<TraceEvent>& events) {
  std::string out = core::csv_row({"name", "tid", "start_us", "dur_us"}) + "\n";
  for (const TraceEvent& event : events) {
    out += core::csv_row(
               {event.name, std::to_string(event.tid),
                std::to_string(static_cast<double>(event.start_nanos) / 1e3),
                std::to_string(static_cast<double>(event.dur_nanos) / 1e3)}) +
           "\n";
  }
  return out;
}

std::vector<core::StatRow> stage_rows(const std::vector<TraceEvent>& events) {
  std::map<std::string, Histogram::Snapshot> stages;
  for (const TraceEvent& event : events) {
    Histogram::Snapshot& snap = stages[event.name];
    const double micros = static_cast<double>(event.dur_nanos) / 1e3;
    ++snap.buckets[Histogram::bucket_of(micros)];
    ++snap.count;
    snap.max_value = std::max(snap.max_value, micros);
  }
  std::vector<core::StatRow> rows;
  rows.reserve(stages.size());
  for (const auto& [name, snap] : stages) {
    rows.push_back(core::stat_dist("stage", name, snap.count,
                                   snap.percentile(0.50), snap.percentile(0.90),
                                   snap.percentile(0.99), snap.max_value));
  }
  return rows;
}

}  // namespace hhc::obs
