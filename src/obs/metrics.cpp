#include "obs/metrics.hpp"

#include "core/io.hpp"

namespace hhc::obs {

std::vector<core::StatRow> MetricsSnapshot::rows() const {
  std::vector<core::StatRow> rows;
  rows.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    rows.push_back(core::stat_scalar("counter", name, value));
  }
  return rows;
}

std::string MetricsSnapshot::to_csv() const {
  return core::stat_rows_csv(rows());
}

std::string MetricsSnapshot::to_json() const {
  return core::stat_rows_json(rows());
}

}  // namespace hhc::obs
