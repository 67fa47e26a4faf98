// The three closed-loop workloads.
//
// Every load is closed-loop: a caller thread sends its next query only when
// the previous answer is back, as a routing data plane does. Query i of a
// run is a pure function of (seed, i), whichever caller sends it, so the
// answers to the seeded prefix, and the verification sample drawn from it,
// do not depend on timing.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <deque>
#include <exception>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "perfbench.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hhc::core::ContainerHandle;
using hhc::core::DisjointPathSet;
using hhc::core::FaultModel;
using hhc::core::HhcTopology;
using hhc::core::Path;
using hhc::query::DegradationLevel;
using hhc::query::PairQuery;
using hhc::query::PathService;
using hhc::query::PathServiceConfig;
using hhc::query::RouteOutcome;
using hhc::query::RouteResult;

namespace {

// Salts keep the streams drawn from one --seed independent.
constexpr std::uint64_t kPoolSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kDrawSalt = 0xd1b54a32d192ed03ULL;
constexpr std::uint64_t kSampleSalt = 0x8cb92ba72f3d8dd7ULL;
constexpr std::uint64_t kFaultSalt = 0xa0761d6478bd642fULL;

// Seeded prefixes and verification samples (about prefix / (mask + 1)
// answers, i.e. ~2048 per workload).
constexpr std::uint64_t kHitPrefix = std::uint64_t{1} << 18;
constexpr std::uint64_t kHitSampleMask = 127;
constexpr std::size_t kHitDraws = std::size_t{1} << 16;
constexpr std::uint64_t kMissPrefix = std::uint64_t{1} << 16;
constexpr std::uint64_t kMissSampleMask = 31;
constexpr std::uint64_t kFaultPrefixEpochs = 4;
constexpr std::uint64_t kFaultSampleMask = 7;

constexpr std::size_t kMaxReasons = 5;

[[nodiscard]] std::uint64_t seeded(std::uint64_t seed, std::uint64_t salt,
                                   std::uint64_t index) noexcept {
  return mix64(mix64(seed ^ salt) + index);
}

[[nodiscard]] bool sampled(std::uint64_t seed, std::uint64_t index,
                           std::uint64_t mask) noexcept {
  return (seeded(seed, kSampleSalt, index) & mask) == 0;
}

// FNV-1a over 64-bit words: the per-answer hash behind the digests.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) noexcept { h = (h ^ word) * 0x100000001b3ULL; }
};

struct alignas(64) CallerState {
  explicit CallerState(double seconds)
      : slices(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / kSliceSeconds))) {}

  LatencyBins latency;
  std::vector<LatencyBins> slices;
  std::size_t slice = 0;
  std::uint64_t slice_end = 0;
  std::uint64_t slice_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t prefix_answers = 0;
  std::uint64_t prefix_delivered = 0;
  std::uint64_t prefix_hops = 0;
  std::uint64_t digest_all = 0;
  std::uint64_t digest_prefix = 0;

  void open_window(std::uint64_t start, std::uint64_t end) noexcept {
    slice_ns = (end - start) / slices.size();
    slice_end = start + slice_ns;
  }

  // One caller-side latency sample, completed at `now`.
  void sample(std::uint64_t now, std::uint64_t nanos) noexcept {
    latency.record(nanos);
    while (now >= slice_end && slice < slices.size()) {
      ++slice;
      slice_end += slice_ns;
    }
    if (slice < slices.size()) slices[slice].record(nanos);
  }

  void record(std::uint64_t index, bool in_prefix, bool ok, bool delivered,
              std::size_t hops, std::uint64_t hash) noexcept {
    ++attempted;
    if (!ok) ++not_ok;
    const std::uint64_t keyed = mix64(hash ^ mix64(index));
    digest_all += keyed;
    if (!in_prefix) return;
    ++prefix_answers;
    digest_prefix += keyed;
    if (delivered) {
      ++prefix_delivered;
      prefix_hops += hops;
    }
  }
};

PhaseResult fold(const std::vector<CallerState>& states, double wall) {
  PhaseResult result;
  result.wall_seconds = wall;
  result.slice_seconds = static_cast<double>(states.front().slice_ns) / 1e9;
  result.slices.resize(states.front().slices.size());
  for (const CallerState& s : states) {
    result.latency.merge(s.latency);
    for (std::size_t k = 0; k < result.slices.size(); ++k) {
      result.slices[k].merge(s.slices[k]);
    }
    result.attempted += s.attempted;
    result.not_ok += s.not_ok;
    result.prefix_answers += s.prefix_answers;
    result.prefix_delivered += s.prefix_delivered;
    result.prefix_hops += s.prefix_hops;
    result.digest_all += s.digest_all;
    result.digest_prefix += s.digest_prefix;
  }
  return result;
}

void fail(VerifyResult& result, std::string reason) {
  ++result.failed;
  if (result.reasons.size() < kMaxReasons) {
    result.reasons.push_back(std::move(reason));
  }
}

std::string pair_label(const Pair& p) {
  return "(" + std::to_string(p.s) + ", " + std::to_string(p.t) + ")";
}

// A pristine answer: the paper's m+1 disjoint paths within the length bound
// 2^(m+1) + 2m + 3.
void check_container(const HhcTopology& net, const DisjointPathSet& set,
                     const Pair& p, VerifyResult& result) {
  ++result.checked;
  std::string why;
  const std::size_t bound =
      (std::size_t{1} << (net.m() + 1)) + 2 * std::size_t{net.m()} + 3;
  if (!hhc::core::verify_disjoint_path_set(net, set, p.s, p.t, &why)) {
    fail(result, pair_label(p) + ": " + why);
  } else if (set.max_length() > bound) {
    fail(result, pair_label(p) + ": longest path " +
                     std::to_string(set.max_length()) + " exceeds " +
                     std::to_string(bound));
  }
}

// Runs query(caller, index, state, log) from `callers` threads in a closed
// loop until `seconds` have passed and every index below `prefix` is done,
// or a span log fills. Caller-side latency is the time between consecutive
// completions on one caller, so it covers everything the caller does per
// query. Thread start-up happens before the timed window opens.
template <typename Query>
PhaseResult closed_loop(std::size_t callers, double seconds,
                        std::uint64_t prefix, std::vector<SpanLog>* logs,
                        Query&& query) {
  std::vector<CallerState> states(callers, CallerState{seconds});
  std::atomic<bool> go{false};
  std::uint64_t start = 0;  // start and end are written before `go`
  std::uint64_t end = 0;
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      CallerState& state = states[c];
      SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      state.open_window(start, end);
      std::uint64_t previous = now_ns();
      for (std::uint64_t i = c;; i += callers) {
        try {
          ScopedSpan root{log, "query", i};
          query(c, i, state, log);
        } catch (const std::exception&) {
          state.record(i, i < prefix, false, false, 0, 0);
        }
        const std::uint64_t now = now_ns();
        state.sample(now, now - previous);
        previous = now;
        if ((now >= end && i + callers >= prefix) ||
            (log != nullptr && log->full())) {
          break;
        }
      }
    });
  }
  start = now_ns();
  end = start + static_cast<std::uint64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  return fold(states, static_cast<double>(now_ns() - start) / 1e9);
}

// --- hit_view --------------------------------------------------------------

class HitView final : public Workload {
 public:
  HitView(std::uint64_t seed, std::size_t callers)
      : seed_{seed},
        callers_{callers},
        net_{kHitM},
        service_{net_, PathServiceConfig{}},
        pool_{hit_pool(net_, seed)},
        draws_(kHitDraws) {
    const hhc::util::ZipfianSampler zipf{pool_.size(), kHitSkew};
    hhc::util::Xoshiro256 rng{seeded(seed, kDrawSalt, 0)};
    for (std::uint32_t& draw : draws_) {
      draw = static_cast<std::uint32_t>(zipf(rng));
    }
    for (const Pair& p : pool_) {
      keep(service_.cache().lookup(p.s, p.t).path_count());
    }
  }

  PhaseResult run(double seconds, bool with_prefix,
                  std::vector<SpanLog>* logs) override {
    const std::uint64_t prefix = with_prefix ? kHitPrefix : 0;
    kept_.assign(callers_, {});
    return closed_loop(
        callers_, seconds, prefix, logs,
        [&](std::size_t c, std::uint64_t i, CallerState& state, SpanLog* log) {
          const Pair& p = pool_[draws_[i & (kHitDraws - 1)]];
          hhc::query::RouteView view;
          {
            ScopedSpan span{log, "query.answer_view"};
            view = service_.answer_view(PairQuery{.s = p.s, .t = p.t});
          }
          Walk w;
          {
            ScopedSpan span{log, "handle.relabel_walk"};
            w = walk(view.container);
          }
          const bool ok = view.outcome == RouteOutcome::kOk && view.ok();
          const bool in_prefix = i < prefix;
          state.record(i, in_prefix, ok, ok, w.longest, w.hash);
          if (in_prefix && sampled(seed_, i, kHitSampleMask)) {
            kept_[c].push_back({p, std::move(view.container)});
          }
        });
  }

  VerifyResult verify() override {
    VerifyResult result;
    for (const auto& kept : kept_) {
      for (const Kept& k : kept) {
        check_container(net_, k.handle.materialize(), k.pair, result);
      }
    }
    return result;
  }

  PathService& service() override { return service_; }

 private:
  struct Kept {
    Pair pair;
    ContainerHandle handle;
  };

  std::uint64_t seed_;
  std::size_t callers_;
  HhcTopology net_;
  PathService service_;
  std::vector<Pair> pool_;
  std::vector<std::uint32_t> draws_;  // Zipf ranks into pool_, cycled
  std::vector<std::vector<Kept>> kept_;  // per caller
};

// --- miss_answer -----------------------------------------------------------

class MissAnswer final : public Workload {
 public:
  MissAnswer(std::uint64_t seed, std::size_t callers)
      : seed_{seed},
        callers_{callers},
        net_{kMissM},
        service_{net_,
                 PathServiceConfig{
                     .cache_shards = kMissShards,
                     .max_entries_per_shard = kMissEntriesPerShard}},
        pool_(kMissPool) {
    for (std::size_t k = 0; k < kMissPool; ++k) {
      pool_[k] = stream_pair(net_, seed ^ kPoolSalt, k);
    }
    // Fill every shard so the timed phase starts in the eviction steady
    // state instead of paying for empty-shard inserts.
    for (std::size_t k = 0; k < 4 * kMissShards * kMissEntriesPerShard; ++k) {
      keep(service_.cache().lookup(pool_[k].s, pool_[k].t).path_count());
    }
  }

  PhaseResult run(double seconds, bool with_prefix,
                  std::vector<SpanLog>* logs) override {
    const std::uint64_t prefix = with_prefix ? kMissPrefix : 0;
    kept_.assign(callers_, {});
    return closed_loop(
        callers_, seconds, prefix, logs,
        [&](std::size_t c, std::uint64_t i, CallerState& state, SpanLog* log) {
          const Pair& p = pool_[seeded(seed_, kDrawSalt, i) & (kMissPool - 1)];
          RouteResult result;
          {
            ScopedSpan span{log, "query.answer"};
            result = service_.answer(PairQuery{.s = p.s, .t = p.t});
          }
          const Walk w = walk(result.paths);
          const bool ok = result.outcome == RouteOutcome::kOk &&
                          result.level == DegradationLevel::kGuaranteed &&
                          result.ok();
          const bool in_prefix = i < prefix;
          state.record(i, in_prefix, ok, ok, w.longest, w.hash);
          if (in_prefix && sampled(seed_, i, kMissSampleMask)) {
            kept_[c].push_back({p, std::move(result.paths)});
          }
        });
  }

  VerifyResult verify() override {
    VerifyResult result;
    for (auto& kept : kept_) {
      for (Kept& k : kept) {
        check_container(net_, DisjointPathSet{std::move(k.paths)}, k.pair,
                        result);
      }
    }
    return result;
  }

  PathService& service() override { return service_; }

 private:
  struct Kept {
    Pair pair;
    std::vector<Path> paths;
  };

  std::uint64_t seed_;
  std::size_t callers_;
  HhcTopology net_;
  PathService service_;
  std::vector<Pair> pool_;
  std::vector<std::vector<Kept>> kept_;
};

// --- fault_churn -----------------------------------------------------------

class FaultChurn final : public Workload {
 public:
  FaultChurn(std::uint64_t seed, std::size_t callers)
      : seed_{seed},
        callers_{callers},
        net_{kFaultM},
        faults_{fault_schedule(net_, seed)},
        // A gate bounded at the caller count: a closed loop never sheds.
        service_{net_, PathServiceConfig{.admission = {.max_in_flight =
                                                           callers}}} {
    warm_all_keys(service_.cache());
  }

  // Callers answer one epoch's block of queries, then meet at a barrier
  // where the service is told the fault landscape changed.
  PhaseResult run(double seconds, bool with_prefix,
                  std::vector<SpanLog>* logs) override {
    const std::uint64_t prefix =
        with_prefix ? kFaultPrefixEpochs * kEpochQueries : 0;
    kept_.assign(callers_, {});
    std::vector<CallerState> states(callers_, CallerState{seconds});
    std::uint64_t epoch = 0;  // written only by the barrier completion
    // Callers claim the epoch's queries one at a time, so a caller whose
    // core is busy with outside work answers fewer of them instead of
    // holding every other caller at the barrier.
    std::atomic<std::uint64_t> next{0};
    bool stop = false;
    std::uint64_t start = 0;  // start and end are written before `go`
    std::uint64_t end = 0;
    const auto next_epoch = [&]() noexcept {
      service_.advance_fault_epoch();
      ++epoch;
      next.store(0, std::memory_order_relaxed);
      const bool logs_full =
          logs != nullptr &&
          std::any_of(logs->begin(), logs->end(),
                      [](const SpanLog& log) { return log.full(); });
      stop = logs_full || (now_ns() >= end && epoch * kEpochQueries >= prefix);
    };
    std::barrier sync{static_cast<std::ptrdiff_t>(callers_), next_epoch};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(callers_);
    for (std::size_t c = 0; c < callers_; ++c) {
      threads.emplace_back([&, c] {
        CallerState& state = states[c];
        SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        state.open_window(start, end);
        for (;;) {
          std::uint64_t previous = now_ns();
          for (std::uint64_t j = next.fetch_add(1, std::memory_order_relaxed);
               j < kEpochQueries;
               j = next.fetch_add(1, std::memory_order_relaxed)) {
            const std::uint64_t i = epoch * kEpochQueries + j;
            try {
              ScopedSpan root{log, "query", i};
              answer_one(c, i, i < prefix, state, log);
            } catch (const std::exception&) {
              state.record(i, i < prefix, false, false, 0, 0);
            }
            const std::uint64_t now = now_ns();
            state.sample(now, now - previous);
            previous = now;
          }
          sync.arrive_and_wait();
          if (stop) break;
        }
      });
    }
    start = now_ns();
    end = start + static_cast<std::uint64_t>(seconds * 1e9);
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    return fold(states, static_cast<double>(now_ns() - start) / 1e9);
  }

  VerifyResult verify() override {
    VerifyResult result;
    for (const auto& kept : kept_) {
      for (const Kept& k : kept) {
        ++result.checked;
        const std::string why = check(k);
        if (!why.empty()) {
          fail(result, pair_label(k.pair) + " at time " +
                           std::to_string(k.time) + ": " + why);
        }
      }
    }
    return result;
  }

  PathService& service() override { return service_; }

 private:
  struct Kept {
    Pair pair;
    std::uint64_t time = 0;
    RouteOutcome outcome = RouteOutcome::kOk;
    DegradationLevel level = DegradationLevel::kDisconnected;
    std::vector<Path> paths;
  };

  void answer_one(std::size_t c, std::uint64_t i, bool in_prefix,
                  CallerState& state, SpanLog* log) {
    const PairQuery query = fault_query(net_, faults_, seed_, i);
    RouteResult result;
    {
      ScopedSpan span{log, "query.answer"};
      result = service_.answer(query);
    }
    Walk w = walk(result.paths);
    w.hash ^= static_cast<std::uint64_t>(result.level);
    const bool delivered = result.ok();
    state.record(i, in_prefix, result.outcome == RouteOutcome::kOk, delivered,
                 w.longest, w.hash);
    if (in_prefix && sampled(seed_, i, kFaultSampleMask)) {
      kept_[c].push_back({{query.s, query.t},
                          query.time,
                          result.outcome,
                          result.level,
                          std::move(result.paths)});
    }
  }

  // Empty when the answer holds; otherwise why it does not.
  [[nodiscard]] std::string check(const Kept& k) const {
    if (k.outcome != RouteOutcome::kOk) {
      return std::string{"outcome "} + hhc::query::to_string(k.outcome);
    }
    if (k.level == DegradationLevel::kDisconnected) {
      if (!k.paths.empty()) return "a disconnected verdict carries a path";
      if (reachable(k.pair, k.time)) {
        return "disconnected verdict, but a usable path exists";
      }
      return {};
    }
    if (k.paths.size() != 1) {
      return "expected one delivered path, got " +
             std::to_string(k.paths.size());
    }
    const Path& path = k.paths.front();
    if (path.empty() || path.front() != k.pair.s || path.back() != k.pair.t) {
      return "the path does not run from s to t";
    }
    std::unordered_set<Node> seen;
    for (std::size_t j = 0; j < path.size(); ++j) {
      if (!seen.insert(path[j]).second) return "the path revisits a node";
      if (j + 1 < path.size() &&
          (!net_.is_edge(path[j], path[j + 1]) ||
           !faults_.edge_usable_at(path[j], path[j + 1], k.time))) {
        return "hop " + std::to_string(j) + " is not a usable HHC edge";
      }
    }
    return {};
  }

  // The benchmark's own BFS over edges usable at `time`.
  [[nodiscard]] bool reachable(const Pair& p, std::uint64_t time) const {
    if (faults_.node_faulty_at(p.s, time) || faults_.node_faulty_at(p.t, time)) {
      return false;
    }
    std::vector<bool> seen(net_.node_count(), false);
    std::deque<Node> frontier{p.s};
    seen[p.s] = true;
    while (!frontier.empty()) {
      const Node u = frontier.front();
      frontier.pop_front();
      if (u == p.t) return true;
      for (const Node v : net_.neighbors(u)) {
        if (!seen[v] && faults_.edge_usable_at(u, v, time)) {
          seen[v] = true;
          frontier.push_back(v);
        }
      }
    }
    return false;
  }

  std::uint64_t seed_;
  std::size_t callers_;
  HhcTopology net_;
  FaultModel faults_;
  PathService service_;
  std::vector<std::vector<Kept>> kept_;
};

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadKind kind : {WorkloadKind::kHitView,
                                  WorkloadKind::kMissAnswer,
                                  WorkloadKind::kFaultChurn}) {
    if (name == workload_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHitView: return "hit_view";
    case WorkloadKind::kMissAnswer: return "miss_answer";
    case WorkloadKind::kFaultChurn: return "fault_churn";
  }
  return "?";
}

Pair stream_pair(const HhcTopology& net, std::uint64_t seed,
                 std::uint64_t index) {
  const std::uint64_t n = net.node_count();
  const Node s = seeded(seed, kDrawSalt, 2 * index) % n;
  Node t = seeded(seed, kDrawSalt, 2 * index + 1) % (n - 1);
  if (t >= s) ++t;
  return {s, t};
}

std::vector<Pair> hit_pool(const HhcTopology& net, std::uint64_t seed) {
  std::vector<Pair> pool;
  pool.reserve(kHitPool);
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t k = 0; pool.size() < kHitPool; ++k) {
    const Pair p = stream_pair(net, seed ^ kPoolSalt, k);
    if (seen.insert(p.s * net.node_count() + p.t).second) pool.push_back(p);
  }
  return pool;
}

FaultModel fault_schedule(const HhcTopology& net, std::uint64_t seed) {
  FaultModel faults;
  hhc::util::Xoshiro256 rng{seeded(seed, kFaultSalt, 0)};
  const std::uint64_t n = net.node_count();
  for (std::uint64_t e = 0; e < kFaultEpochs; ++e) {
    for (std::size_t k = 0; k < kNodeFaultsPerEpoch; ++k) {
      faults.fail_node(rng.below(n), e, e + 1);
    }
    for (std::size_t k = 0; k < kLinkFaultsPerEpoch; ++k) {
      const Node u = rng.below(n);
      const auto dim = static_cast<unsigned>(rng.below(net.degree()));
      const Node v = dim < net.m() ? net.internal_neighbor(u, dim)
                                   : net.external_neighbor(u);
      faults.fail_link(u, v, e, e + 1);
    }
  }
  return faults;
}

PairQuery fault_query(const HhcTopology& net, const FaultModel& faults,
                      std::uint64_t seed, std::uint64_t index) {
  const Pair p = stream_pair(net, seed ^ kFaultSalt, index);
  return PairQuery{
      .s = p.s,
      .t = p.t,
      .faults = &faults,
      .time = (index / kEpochQueries) % kFaultEpochs,
      .deadline = hhc::util::Deadline::after_micros(kDeadlineMicros)};
}

Walk walk(const ContainerHandle& handle) {
  Fnv fnv;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < handle.path_count(); ++i) {
    const std::size_t size = handle.path_size(i);
    longest = std::max(longest, size - 1);
    fnv.add(size);
    for (std::size_t j = 0; j < size; ++j) fnv.add(handle.node(i, j));
  }
  return {fnv.h, longest};
}

Walk walk(const std::vector<Path>& paths) {
  Fnv fnv;
  std::size_t longest = 0;
  for (const Path& path : paths) {
    longest = std::max(longest, path.size() - 1);
    fnv.add(path.size());
    for (const Node v : path) fnv.add(v);
  }
  return {fnv.h, longest};
}

void warm_all_keys(hhc::core::ContainerCache& cache) {
  const HhcTopology& net = cache.net();
  for (std::uint64_t xdiff = 0; xdiff < net.cluster_count(); ++xdiff) {
    for (std::uint64_t ys = 0; ys < net.cluster_size(); ++ys) {
      for (std::uint64_t yt = 0; yt < net.cluster_size(); ++yt) {
        if (xdiff == 0 && ys == yt) continue;
        keep(cache.lookup(net.encode(0, ys), net.encode(xdiff, yt))
                 .path_count());
      }
    }
  }
}

std::unique_ptr<Workload> make_workload(WorkloadKind kind, std::uint64_t seed,
                                        std::size_t callers) {
  switch (kind) {
    case WorkloadKind::kHitView:
      return std::make_unique<HitView>(seed, callers);
    case WorkloadKind::kMissAnswer:
      return std::make_unique<MissAnswer>(seed, callers);
    case WorkloadKind::kFaultChurn:
      return std::make_unique<FaultChurn>(seed, callers);
  }
  return nullptr;
}

}  // namespace perfbench
