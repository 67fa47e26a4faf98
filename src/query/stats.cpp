#include "query/stats.hpp"

#include <iterator>
#include <ostream>

#include "core/io.hpp"
#include "util/table.hpp"

namespace hhc::query {

namespace {

// Percentile for rendering: empty snapshots print 0 instead of throwing
// (a freshly constructed service must still render a stats row).
double pct(const obs::Histogram::Snapshot& latency, double p) {
  return latency.count == 0 ? 0.0 : latency.percentile(p);
}

core::StatRow latency_row(const char* name,
                          const obs::Histogram::Snapshot& latency) {
  return core::stat_dist("latency", name, latency.count, pct(latency, 0.50),
                         pct(latency, 0.90), pct(latency, 0.99),
                         latency.max_value);
}

}  // namespace

std::vector<core::StatRow> ServiceStats::rows() const {
  std::vector<core::StatRow> rows;
  const auto scalar = [&rows](const char* name, std::uint64_t value) {
    rows.push_back(core::stat_scalar("service", name, value));
  };
  scalar("queries", queries);
  scalar("pristine", pristine);
  scalar("fault_aware", fault_aware);
  scalar("guaranteed", guaranteed);
  scalar("best_effort", best_effort);
  scalar("disconnected", disconnected);
  scalar("shed", shed);
  scalar("timed_out", timed_out);
  scalar("invalid", invalid);
  scalar("breaker_short_circuits", breaker_short_circuits);
  scalar("breaker_trips", breaker_trips);
  scalar("fault_epoch", fault_epoch);
  scalar("in_flight", in_flight);

  rows.push_back(latency_row("answer_us", latency));
  rows.push_back(latency_row("answer_ok_us", latency_ok));
  rows.push_back(latency_row("answer_timed_out_us", latency_timed_out));

  std::vector<core::StatRow> cache_rows = cache.rows();
  rows.insert(rows.end(), std::make_move_iterator(cache_rows.begin()),
              std::make_move_iterator(cache_rows.end()));

  std::vector<core::StatRow> metric_rows = metrics.rows();
  rows.insert(rows.end(), std::make_move_iterator(metric_rows.begin()),
              std::make_move_iterator(metric_rows.end()));
  return rows;
}

std::string ServiceStats::to_csv() const {
  return core::stat_rows_csv(rows());
}

std::string ServiceStats::to_json() const {
  return core::stat_rows_json(rows());
}

void ServiceStats::print(std::ostream& os) const {
  util::Table table{{"queries", "guaranteed", "best-effort", "disconnected",
                     "shed", "timed out", "hit rate %", "entries",
                     "p50 us", "p99 us", "max us"}};
  table.row()
      .add(queries)
      .add(guaranteed)
      .add(best_effort)
      .add(disconnected)
      .add(shed)
      .add(timed_out)
      .add(100.0 * hit_rate(), 1)
      .add(static_cast<std::uint64_t>(cache.entries))
      .add(pct(latency, 0.50), 1)
      .add(pct(latency, 0.99), 1)
      .add(latency.max_value, 1);
  table.print(os, "path service: " + std::to_string(pristine) +
                      " pristine + " + std::to_string(fault_aware) +
                      " fault-aware queries");
}

}  // namespace hhc::query
