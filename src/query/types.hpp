// The unified path-query surface.
//
// Before this module, every consumer of the disjoint-path construction had
// its own entry point and its own result shape: the sim called
// node_disjoint_paths directly, the fault layer had AdaptiveRouteResult,
// examples hand-rolled both. PairQuery/RouteResult is the one vocabulary
// they all speak now: a query names a pair and optionally a fault view
// (FaultModel + evaluation instant); a result carries the paths, HOW the
// answer was obtained (DegradationLevel + fallback/blocked detail), and
// what it cost (cache hit, service-side latency).
//
// This header is intentionally header-only and dependency-light so that
// both layers below the service (fault::AdaptiveRouter reports its results
// in this vocabulary) and above it (query::PathService, sim transfers) can
// include it without link-time cycles.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/disjoint.hpp"
#include "core/topology.hpp"
#include "util/deadline.hpp"

namespace hhc::core {
class FaultModel;
}

namespace hhc::query {

/// How an answer was obtained — "container vs fallback vs disconnected",
/// reported the same way by every routing entry point.
enum class DegradationLevel {
  kGuaranteed,    // served by the disjoint container (the paper's guarantee)
  kBestEffort,    // container fully blocked; survivor-subgraph BFS succeeded
  kDisconnected,  // no fault-free s-t path exists at all
};

[[nodiscard]] constexpr const char* to_string(DegradationLevel level) noexcept {
  switch (level) {
    case DegradationLevel::kGuaranteed: return "guaranteed";
    case DegradationLevel::kBestEffort: return "best-effort";
    case DegradationLevel::kDisconnected: return "disconnected";
  }
  return "?";
}

/// WHETHER the service delivered a full answer — deliberately distinct from
/// DegradationLevel, which records HOW an answer was obtained. kOk +
/// kDisconnected is an authoritative "no path exists"; kShed + kDisconnected
/// means the service gave up early and the verdict is NOT authoritative.
enum class RouteOutcome {
  kOk,        // the query ran to completion; level/paths are authoritative
  kTimedOut,  // deadline expired (or token cancelled) before completion
  kShed,      // dropped by admission control / load shedding / breaker
  kInvalid,   // malformed query inside a batch (out-of-range node)
};

[[nodiscard]] constexpr const char* to_string(RouteOutcome outcome) noexcept {
  switch (outcome) {
    case RouteOutcome::kOk: return "ok";
    case RouteOutcome::kTimedOut: return "timed-out";
    case RouteOutcome::kShed: return "shed";
    case RouteOutcome::kInvalid: return "invalid";
  }
  return "?";
}

/// One path query. With `faults == nullptr` the query is pristine and the
/// answer is the full m+1-path container core::ContainerCache serves (the
/// paper's construction; container_cache.hpp states which container). With
/// a fault view attached the answer degrades gracefully through the
/// AdaptiveRouter ladder.
struct PairQuery {
  core::Node s = 0;
  core::Node t = 0;
  const core::FaultModel* faults = nullptr;  // not owned; null = pristine
  std::uint64_t time = 0;                    // fault-evaluation instant
  /// Optional per-query time budget. Default-constructed = none: the query
  /// runs to completion exactly as before deadlines existed. Checked
  /// cooperatively at stage boundaries, so the worst-case overrun is one
  /// stage-check interval (see util/deadline.hpp).
  util::Deadline deadline{};
  /// Optional external cancellation (not owned); checked wherever the
  /// deadline is. Null = never cancelled.
  const util::CancellationToken* cancel = nullptr;
};

/// One answer. Pristine queries fill `paths` with the whole container
/// (level kGuaranteed); fault-aware queries carry the single delivered
/// route (kGuaranteed over a surviving container path, kBestEffort via the
/// BFS fallback) or nothing at all (kDisconnected).
struct RouteResult {
  std::vector<core::Path> paths;
  DegradationLevel level = DegradationLevel::kDisconnected;
  RouteOutcome outcome = RouteOutcome::kOk;  // see enum: WHETHER vs HOW
  std::size_t container_paths_blocked = 0;  // of the m+1 container paths
  bool used_fallback = false;               // BFS fallback engaged
  // The survivor search's work: A* and guard-BFS expansions (0 when no
  // search ran).
  std::size_t search_expansions = 0;
  std::size_t guard_expansions = 0;
  // The search ran A* from t toward s, its guard from s (false when it ran
  // from s, or when no search ran).
  bool search_from_t = false;
  // Served without running the construction: a cached index entry or an
  // orbit record that was already filled.
  bool cache_hit = false;
  double micros = 0.0;        // service-side wall time (0 outside a service)

  [[nodiscard]] bool ok() const noexcept { return !paths.empty(); }

  /// The route a single message should take: the shortest of `paths`.
  /// Throws std::logic_error when there is none (check ok() first).
  [[nodiscard]] const core::Path& primary() const {
    if (paths.empty()) {
      throw std::logic_error("RouteResult::primary: no path (disconnected)");
    }
    const core::Path* best = &paths.front();
    for (const core::Path& path : paths) {
      if (path.size() < best->size()) best = &path;
    }
    return *best;
  }
};

}  // namespace hhc::query
