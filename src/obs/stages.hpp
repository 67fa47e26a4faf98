// Canonical trace-stage names, shared by the instrumentation sites, the
// per-stage rows obs::stage_rows folds from drained events (the benchmark
// breakdown and the hhc_tool trace table), and the CI smoke check that
// greps the emitted Chrome trace for them. One constant per stage keeps
// every consumer spelling them identically.
#pragma once

namespace hhc::obs::stages {

// query layer (PathService)
inline constexpr const char* kAnswer = "query.answer";
inline constexpr const char* kAnswerView = "query.answer_view";

// Per-outcome answer latency and the overload tallies (shed, timed out,
// invalid, breaker short-circuits and trips) are not registry counters:
// PathService keeps them in its own per-thread stripes and ServiceStats is
// their one source.

// container cache (miss-path stages; the lock-free HIT path is deliberately
// span-free — hits are timed by the enclosing query.answer/answer_view
// span, so an enabled trace adds one event per hit, not two)
inline constexpr const char* kConstruct = "query.construct";
inline constexpr const char* kCachePublish = "query.cache_publish";

// fault-aware routing (AdaptiveRouter)
inline constexpr const char* kContainerScan = "router.container_scan";
inline constexpr const char* kBfsFallback = "router.bfs_fallback";

// construction internals (node_disjoint_paths scratch path)
inline constexpr const char* kFanSolve = "construct.fan_solve";

// campaign / simulator trials
inline constexpr const char* kCampaignRow = "campaign.row";
inline constexpr const char* kCampaignTrial = "campaign.trial";
inline constexpr const char* kSimRun = "sim.run";

}  // namespace hhc::obs::stages
