#include "fault/campaign.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "core/container_cache.hpp"
#include "core/fault_model.hpp"
#include "core/io.hpp"
#include "core/orbit_table.hpp"
#include "fault/adaptive_router.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hhc::fault {

namespace {

double rate(std::size_t part, std::size_t whole) noexcept {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// Independent, reproducible stream per (sweep, budget, trial).
std::uint64_t trial_seed(std::uint64_t seed, std::size_t faults,
                         std::size_t trial) {
  util::SplitMix64 sm{seed ^ (faults + 1) * 0x9e3779b97f4a7c15ULL ^
                      (trial + 1) * 0xbf58476d1ce4e5b9ULL};
  return sm.next();
}

struct TrialOutcome {
  query::DegradationLevel level = query::DegradationLevel::kDisconnected;
  double inflation = 0.0;  // valid when delivered
};

TrialOutcome run_trial(core::ContainerCache& cache,
                       const AdaptiveRouter& router,
                       const core::FaultModel::RandomSpec& spec,
                       std::uint64_t seed) {
  obs::TraceSpan span{obs::stages::kCampaignTrial};
  const core::HhcTopology& net = cache.net();
  util::Xoshiro256 rng{seed};
  core::Node s = rng.below(net.node_count());
  core::Node t = rng.below(net.node_count());
  while (t == s) t = rng.below(net.node_count());

  const auto faults = core::FaultModel::random(net, spec, s, t, rng);
  const auto routed = router.route(s, t, faults);

  TrialOutcome outcome;
  outcome.level = routed.level;
  if (routed.ok()) {
    // Reference: the shortest member of the container the router scans,
    // with zero faults — what this pair pays when the guarantee machinery
    // runs unimpeded.
    const auto baseline = cache.materialize(s, t).min_length();
    outcome.inflation = baseline == 0
                            ? 1.0
                            : static_cast<double>(routed.primary().size() - 1) /
                                  static_cast<double>(baseline);
  }
  return outcome;
}

}  // namespace

double CampaignRow::success_rate() const noexcept {
  return rate(delivered(), trials);
}
double CampaignRow::guaranteed_rate() const noexcept {
  return rate(guaranteed, trials);
}
double CampaignRow::fallback_rate() const noexcept {
  return rate(best_effort, trials);
}

CampaignRunner::CampaignRunner(CampaignConfig config) : config_{config} {
  if (!core::OrbitTable::covers(config_.m)) {
    // Above m = 4 the router sheds a cut container instead of sweeping, so
    // a campaign could not tell a detour from a disconnected pair.
    throw std::invalid_argument("CampaignRunner: m must be at most 4");
  }
  if (config_.trials == 0) {
    throw std::invalid_argument("CampaignRunner: trials must be positive");
  }
  if (config_.link_fault_fraction < 0.0 || config_.link_fault_fraction > 1.0 ||
      config_.external_fraction < 0.0 || config_.external_fraction > 1.0) {
    throw std::invalid_argument("CampaignRunner: fractions must be in [0,1]");
  }
}

CampaignReport CampaignRunner::run() const {
  const core::HhcTopology net{config_.m};
  // One cache for the sweep, shared by the pool's workers.
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const std::size_t max_faults =
      config_.max_faults != 0 ? config_.max_faults : net.degree() + 2;

  CampaignReport report;
  report.config = config_;
  report.config.max_faults = max_faults;

  // One pool across the whole sweep: campaign batches deliberately reuse
  // the same workers (the regression the thread-pool tests pin down).
  util::ThreadPool pool{config_.threads == 1 ? 1 : config_.threads};

  for (std::size_t f = 0; f <= max_faults; ++f) {
    const auto links = static_cast<std::size_t>(std::llround(
        static_cast<double>(f) * config_.link_fault_fraction));
    const auto external = static_cast<std::size_t>(std::llround(
        static_cast<double>(links) * config_.external_fraction));
    core::FaultModel::RandomSpec spec;
    spec.node_faults = f - links;
    spec.external_link_faults = external;
    spec.internal_link_faults = links - external;

    std::vector<TrialOutcome> outcomes(config_.trials);
    obs::TraceSpan row_span{obs::stages::kCampaignRow};
    util::Stopwatch watch;
    const auto body = [&](std::size_t i) {
      outcomes[i] =
          run_trial(cache, router, spec, trial_seed(config_.seed, f, i));
    };
    if (config_.threads == 1) {
      for (std::size_t i = 0; i < config_.trials; ++i) body(i);
    } else {
      pool.parallel_for(0, config_.trials, body);
    }

    CampaignRow row;
    row.faults = f;
    row.node_faults = spec.node_faults;
    row.link_faults = links;
    row.trials = config_.trials;
    row.wall_seconds = watch.seconds();
    double inflation_sum = 0.0;
    for (const TrialOutcome& o : outcomes) {
      switch (o.level) {
        case query::DegradationLevel::kGuaranteed: ++row.guaranteed; break;
        case query::DegradationLevel::kBestEffort: ++row.best_effort; break;
        case query::DegradationLevel::kDisconnected: ++row.disconnected; break;
      }
      inflation_sum += o.inflation;
    }
    row.avg_inflation =
        row.delivered() == 0
            ? 0.0
            : inflation_sum / static_cast<double>(row.delivered());
    report.rows.push_back(row);
  }
  return report;
}

std::string CampaignReport::to_csv() const {
  std::string out =
      core::csv_row({"faults", "node_faults", "link_faults", "trials",
                     "guaranteed", "best_effort", "disconnected",
                     "success_rate", "guaranteed_rate", "fallback_rate",
                     "avg_inflation", "wall_seconds"}) +
      "\n";
  for (const CampaignRow& r : rows) {
    out += core::csv_row(
               {std::to_string(r.faults), std::to_string(r.node_faults),
                std::to_string(r.link_faults), std::to_string(r.trials),
                std::to_string(r.guaranteed), std::to_string(r.best_effort),
                std::to_string(r.disconnected),
                std::to_string(r.success_rate()),
                std::to_string(r.guaranteed_rate()),
                std::to_string(r.fallback_rate()),
                std::to_string(r.avg_inflation),
                std::to_string(r.wall_seconds)}) +
           "\n";
  }
  return out;
}

std::string CampaignReport::to_json() const {
  core::JsonWriter json;
  json.begin_object()
      .key("m").value(static_cast<std::uint64_t>(config.m))
      .key("trials").value(static_cast<std::uint64_t>(config.trials))
      .key("max_faults").value(static_cast<std::uint64_t>(config.max_faults))
      .key("link_fault_fraction").value(config.link_fault_fraction)
      .key("external_fraction").value(config.external_fraction)
      .key("seed").value(config.seed)
      .key("rows").begin_array();
  for (const CampaignRow& r : rows) {
    json.begin_object()
        .key("faults").value(static_cast<std::uint64_t>(r.faults))
        .key("node_faults").value(static_cast<std::uint64_t>(r.node_faults))
        .key("link_faults").value(static_cast<std::uint64_t>(r.link_faults))
        .key("trials").value(static_cast<std::uint64_t>(r.trials))
        .key("guaranteed").value(static_cast<std::uint64_t>(r.guaranteed))
        .key("best_effort").value(static_cast<std::uint64_t>(r.best_effort))
        .key("disconnected").value(static_cast<std::uint64_t>(r.disconnected))
        .key("success_rate").value(r.success_rate())
        .key("guaranteed_rate").value(r.guaranteed_rate())
        .key("fallback_rate").value(r.fallback_rate())
        .key("avg_inflation").value(r.avg_inflation)
        .key("wall_seconds").value(r.wall_seconds)
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

void CampaignReport::print(std::ostream& os) const {
  util::Table table{{"faults", "nodes+links", "guaranteed %", "fallback %",
                     "disconnected %", "inflation", "ms"}};
  for (const CampaignRow& r : rows) {
    table.row()
        .add(static_cast<std::uint64_t>(r.faults))
        .add(std::to_string(r.node_faults) + "+" +
             std::to_string(r.link_faults))
        .add(100.0 * r.guaranteed_rate(), 1)
        .add(100.0 * r.fallback_rate(), 1)
        .add(100.0 * rate(r.disconnected, r.trials), 1)
        .add(r.avg_inflation, 2)
        .add(r.wall_seconds * 1e3, 1);
  }
  char link_fraction[32];
  std::snprintf(link_fraction, sizeof link_fraction, "%.2f",
                config.link_fault_fraction);
  table.print(os, "fault campaign: m=" + std::to_string(config.m) +
                      ", trials/row=" + std::to_string(config.trials) +
                      ", link fraction=" + link_fraction +
                      " (guarantee boundary at f=" + std::to_string(config.m) +
                      ")");
}

}  // namespace hhc::fault
