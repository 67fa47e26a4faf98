// The path-query benchmark: three closed-loop workloads against
// query::PathService, and the per-layer ladder that times each public layer
// those workloads go through. perfbench/README.md documents the workloads,
// the layers each one loads or bypasses, and which end-to-end metric each
// per-layer metric is expected to move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "latency.hpp"
#include "query/path_service.hpp"
#include "spans.hpp"

namespace perfbench {

using hhc::core::Node;

enum class WorkloadKind { kHitView, kMissAnswer, kFaultChurn };

[[nodiscard]] std::optional<WorkloadKind> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

// --- workload parameters ---------------------------------------------------
// hit_view: a Zipf-0.99 draw over a pool of distinct pairs, all cached.
inline constexpr unsigned kHitM = 4;
inline constexpr std::size_t kHitPool = 4096;
inline constexpr double kHitSkew = 0.99;
// miss_answer: uniform draws from a 2^20-pair pool against a 16 x 64 cache.
inline constexpr unsigned kMissM = 4;
inline constexpr std::size_t kMissPool = std::size_t{1} << 20;
inline constexpr std::size_t kMissShards = 16;
inline constexpr std::size_t kMissEntriesPerShard = 64;
// fault_churn: fresh pairs at m = 3; each fault epoch is a fixed block of
// queries that see one time-windowed fault set.
inline constexpr unsigned kFaultM = 3;
inline constexpr std::uint64_t kEpochQueries = 4096;
inline constexpr std::uint64_t kFaultEpochs = 32;  // schedule length; wraps
inline constexpr std::size_t kNodeFaultsPerEpoch = 40;
inline constexpr std::size_t kLinkFaultsPerEpoch = 400;
inline constexpr double kDeadlineMicros = 1e6;

struct Pair {
  Node s = 0;
  Node t = 0;
};

/// 64-bit finalizer (SplitMix64's); every seeded input goes through it.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The index-th pair of a seeded stream: uniform over distinct nodes.
[[nodiscard]] Pair stream_pair(const hhc::core::HhcTopology& net,
                               std::uint64_t seed, std::uint64_t index);

/// hit_view's pool: kHitPool distinct seeded pairs at m = 4.
[[nodiscard]] std::vector<Pair> hit_pool(const hhc::core::HhcTopology& net,
                                         std::uint64_t seed);

/// fault_churn's schedule: for epoch e < kFaultEpochs, node and link faults
/// active during [e, e + 1).
[[nodiscard]] hhc::core::FaultModel fault_schedule(
    const hhc::core::HhcTopology& net, std::uint64_t seed);

/// The index-th fault_churn query: a fresh seeded pair at time
/// (index / kEpochQueries) mod kFaultEpochs with an armed 1 s deadline.
[[nodiscard]] hhc::query::PairQuery fault_query(
    const hhc::core::HhcTopology& net, const hhc::core::FaultModel& faults,
    std::uint64_t seed, std::uint64_t index);

/// Warms `cache` with every canonical key (xdiff, Ys, Yt) of its topology.
void warm_all_keys(hhc::core::ContainerCache& cache);

struct Walk {
  std::uint64_t hash = 0;   // FNV-1a over path sizes and nodes
  std::size_t longest = 0;  // hop count of the longest path
};

/// Reads every node of a borrowed container, as a data plane forwarding
/// over it would.
[[nodiscard]] Walk walk(const hhc::core::ContainerHandle& handle);
/// The same over owning paths (equal containers hash equal).
[[nodiscard]] Walk walk(const std::vector<hhc::core::Path>& paths);

/// The timed window is cut into slices of about this length; the
/// end-to-end rates and percentiles are medians over slices, so a burst of
/// outside load during one slice does not move them.
inline constexpr double kSliceSeconds = 1.0;

/// What one closed-loop phase measured, folded over its callers.
struct PhaseResult {
  double wall_seconds = 0.0;
  double slice_seconds = 0.0;
  LatencyBins latency;  // caller-side time per query, whole phase
  std::vector<LatencyBins> slices;  // the same, per slice of the window
  std::uint64_t attempted = 0;
  std::uint64_t not_ok = 0;  // outcome other than kOk, or an exception
  // Over the seeded prefix (query indices below the workload's prefix),
  // which every run answers in full, so these repeat at a fixed seed.
  std::uint64_t prefix_answers = 0;
  std::uint64_t prefix_delivered = 0;  // answers carrying a path
  std::uint64_t prefix_hops = 0;       // sum of longest-path hop counts
  // Order-independent sums of per-answer hashes keyed by query index.
  std::uint64_t digest_all = 0;
  std::uint64_t digest_prefix = 0;
};

struct VerifyResult {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  // the first few failures
};

/// One workload's prepared state: topology, service, inputs and warm
/// cache. Constructing it is the set-up the benchmark times.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the closed loop for `seconds`. With `with_prefix` the loop also
  /// runs until every query of the seeded prefix is answered, and keeps the
  /// seeded verification sample. With `logs` (one per caller) each query
  /// records spans around its layer calls, and the phase also ends when a
  /// log fills.
  virtual PhaseResult run(double seconds, bool with_prefix,
                          std::vector<SpanLog>* logs) = 0;

  /// Checks the answers kept by the last run() with a prefix.
  virtual VerifyResult verify() = 0;

  [[nodiscard]] virtual hhc::query::PathService& service() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(WorkloadKind kind,
                                                      std::uint64_t seed,
                                                      std::size_t callers);

/// The per-layer ladder: every layer timed alone on fixed seeded inputs.
struct LadderResult {
  std::map<std::string, double> self_ns;  // median self time per call
  std::uint64_t fault_routes = 0;
  std::uint64_t fault_fallback = 0;
  std::uint64_t fault_guaranteed = 0;
  std::uint64_t fault_disconnected = 0;
  double fault_route_median_ns = 0.0;  // every fault route, any outcome
  double construct_heap_allocs = 0.0;  // per node_disjoint_paths call
};

/// Runs the ladder, recording its spans into `main_log` (single-thread
/// steps) and `thread_logs` (one per caller, for the concurrent steps).
[[nodiscard]] LadderResult run_ladder(std::uint64_t seed, std::size_t callers,
                                      SpanLog& main_log,
                                      std::vector<SpanLog>& thread_logs);

/// Heap allocations made by the calling thread so far (the benchmark
/// replaces global operator new to count them).
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

/// Keeps a computed value alive so the optimizer cannot drop the call.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace perfbench
