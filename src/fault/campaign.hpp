// Deterministic Monte-Carlo fault-injection campaigns.
//
// A campaign sweeps the fault budget f from 0 to past m+1 and, for each
// budget, routes `trials` random s-t pairs through the AdaptiveRouter under
// `f` random faults (split between node and link faults per the config).
// Recorded per budget: how often the container guarantee held, how often
// the BFS fallback saved the day, how often the pair was genuinely
// disconnected, the path-length inflation paid for degradation, and wall
// time. The sweep is deterministic in the seed regardless of thread count
// (every trial derives its own RNG), so campaign outputs diff cleanly
// across machines and runs.
//
// Reports render as text tables, CSV, or JSON (via core::io) so they can
// feed EXPERIMENTS.md, spreadsheets, and dashboards from one run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hhc::fault {

struct CampaignConfig {
  unsigned m = 3;             // cluster dimension (1..4, the BFS range)
  std::size_t trials = 200;   // s-t pairs per fault budget
  std::size_t max_faults = 0; // sweep 0..max_faults; 0 means degree + 2
  double link_fault_fraction = 0.0;  // of each budget, injected as links
  double external_fraction = 0.5;    // of link faults, external edges
  std::uint64_t seed = 1;
  std::size_t threads = 1;    // workers for the trial loop; 0 = hardware
};

/// Aggregates for one fault budget f.
struct CampaignRow {
  std::size_t faults = 0;        // total budget f
  std::size_t node_faults = 0;   // per-trial split of f
  std::size_t link_faults = 0;
  std::size_t trials = 0;
  std::size_t guaranteed = 0;    // delivered over the container
  std::size_t best_effort = 0;   // delivered via BFS fallback
  std::size_t disconnected = 0;  // no survivor path existed
  double avg_inflation = 0.0;    // delivered length / container's shortest
  double wall_seconds = 0.0;

  [[nodiscard]] std::size_t delivered() const noexcept {
    return guaranteed + best_effort;
  }
  [[nodiscard]] double success_rate() const noexcept;
  [[nodiscard]] double guaranteed_rate() const noexcept;
  [[nodiscard]] double fallback_rate() const noexcept;
};

struct CampaignReport {
  CampaignConfig config;
  std::vector<CampaignRow> rows;

  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
  /// Aligned text table (util::Table) with one line per fault budget.
  void print(std::ostream& os) const;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config);

  /// Runs the full sweep. Deterministic in config (modulo wall_seconds).
  [[nodiscard]] CampaignReport run() const;

 private:
  CampaignConfig config_;
};

}  // namespace hhc::fault
