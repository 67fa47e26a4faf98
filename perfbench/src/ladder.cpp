// The per-layer ladder: each public layer the workloads go through, timed
// alone from the benchmark's own code on fixed seeded inputs. Every call
// (or every batch of calls, for layers that take a few nanoseconds) is one
// span, so the per-layer numbers are span self times like the rest of the
// traced run.
#include <array>
#include <atomic>
#include <thread>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/scratch.hpp"
#include "fault/adaptive_router.hpp"
#include "graph/vertex_disjoint.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "query/admission.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace hhc;

constexpr std::size_t kBatches = 512;     // spans per batched step
constexpr std::uint32_t kTinyReps = 256;  // calls per span, ~10 ns layers
constexpr std::uint32_t kSmallReps = 16;  // calls per span, ~100 ns layers
constexpr std::size_t kMissCalls = 3000;  // spans per construction-scale step
constexpr std::uint64_t kLadderSalt = 0x2545f4914f6cdd1dULL;

// One span per batch of `reps` calls of call(k), k counting up from 0.
template <typename Call>
void batched(SpanLog& log, const char* name, std::size_t batches,
             std::uint32_t reps, Call&& call) {
  std::uint64_t k = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    ScopedSpan span{&log, name, b, reps};
    for (std::uint32_t r = 0; r < reps; ++r) call(k++);
  }
}

// Runs body(thread, log) on one thread per log, all released together.
template <typename Body>
void concurrently(std::vector<SpanLog>& logs, Body&& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(logs.size());
  for (std::size_t c = 0; c < logs.size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(c, logs[c]);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
}

[[nodiscard]] bool admitted(query::AdmissionVerdict verdict) noexcept {
  return verdict == query::AdmissionVerdict::kAdmitted ||
         verdict == query::AdmissionVerdict::kAdmittedDegraded;
}

void admission_steps(std::size_t callers, SpanLog& log) {
  query::AdmissionGate inert{query::AdmissionConfig{}};
  batched(log, "gate.admit_release", kBatches, kTinyReps, [&](std::uint64_t) {
    if (admitted(inert.admit(util::Deadline{}, nullptr))) inert.release();
  });
  // fault_churn's gate: bounded at the caller count, armed deadlines.
  query::AdmissionGate bounded{
      query::AdmissionConfig{.max_in_flight = callers}};
  const util::Deadline deadline = util::Deadline::after_micros(600e6);
  batched(log, "gate.admit_release_bounded", kBatches, kTinyReps,
          [&](std::uint64_t) {
            if (admitted(bounded.admit(deadline, nullptr))) bounded.release();
          });
}

void obs_steps(std::vector<SpanLog>& thread_logs, SpanLog& log) {
  obs::Histogram histogram;
  std::array<double, 1024> micros{};
  for (std::size_t k = 0; k < micros.size(); ++k) {
    micros[k] = 0.05 * static_cast<double>(1 + mix64(k) % 4000);
  }
  const auto record = [&](std::uint64_t k) {
    histogram.record(micros[k & (micros.size() - 1)]);
  };
  batched(log, "obs.hist_record", kBatches, kTinyReps, record);
  // Every caller records into the one shared histogram, as the service's
  // callers do.
  concurrently(thread_logs, [&](std::size_t, SpanLog& own) {
    batched(own, "obs.hist_record_4t", kBatches, kTinyReps, record);
  });
}

void hit_steps(std::uint64_t seed, std::vector<SpanLog>& thread_logs,
               SpanLog& log) {
  const core::HhcTopology net{kHitM};
  query::PathService service{net};
  const std::vector<Pair> pool = hit_pool(net, seed);
  std::vector<core::ContainerHandle> handles;
  handles.reserve(pool.size());
  for (const Pair& p : pool) handles.push_back(service.cache().lookup(p.s, p.t));
  // A fixed odd stride walks the whole pool in a scattered order.
  const auto slot = [&](std::uint64_t k) {
    return (k * 2654435761ULL) % pool.size();
  };
  const auto lookup = [&](std::uint64_t k) {
    const Pair& p = pool[slot(k)];
    keep(service.cache().lookup(p.s, p.t).path_count());
  };
  const auto view = [&](std::uint64_t k) {
    const Pair& p = pool[slot(k)];
    keep(service.answer_view(query::PairQuery{.s = p.s, .t = p.t})
             .container.source());
  };
  // answer_view and a bare lookup over the same pairs, batch by batch and
  // alternating which runs first, so the service's own cost is a paired
  // difference rather than a gap between two separately drifting medians.
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto run = [&](const char* name, const auto& call) {
      ScopedSpan span{&log, name, b, kSmallReps};
      for (std::uint32_t r = 0; r < kSmallReps; ++r) call(b * kSmallReps + r);
    };
    if (b % 2 == 0) {
      run("query.answer_view", view);
      run("cache.lookup_hit", lookup);
    } else {
      run("cache.lookup_hit", lookup);
      run("query.answer_view", view);
    }
  }
  concurrently(thread_logs, [&](std::size_t, SpanLog& own) {
    batched(own, "cache.lookup_hit_4t", kBatches, kSmallReps, lookup);
  });
  batched(log, "handle.relabel_walk", kBatches, kSmallReps,
          [&](std::uint64_t k) { keep(walk(handles[slot(k)]).hash); });
  concurrently(thread_logs, [&](std::size_t, SpanLog& own) {
    batched(own, "query.answer_view_4t", kBatches, kSmallReps, view);
  });
}

void miss_steps(std::uint64_t seed, SpanLog& log, LadderResult& result) {
  const core::HhcTopology net{kMissM};
  const std::size_t warm = 4 * kMissShards * kMissEntriesPerShard;
  std::uint64_t next = 0;
  const auto fresh = [&] { return stream_pair(net, seed ^ kLadderSalt, next++); };
  std::vector<Pair> warm_pairs(warm);
  for (Pair& p : warm_pairs) p = fresh();
  std::vector<Pair> pairs(kMissCalls);
  for (Pair& p : pairs) p = fresh();

  // Capacity-bound caches in their eviction steady state, as in
  // miss_answer: one bare, one behind a service.
  const core::ContainerCache::Config capped{
      .shards = kMissShards, .max_entries_per_shard = kMissEntriesPerShard};
  core::ContainerCache cache{net, capped};
  query::PathService service{
      net, query::PathServiceConfig{
               .cache_shards = kMissShards,
               .max_entries_per_shard = kMissEntriesPerShard}};
  for (const Pair& p : warm_pairs) {
    keep(cache.lookup(p.s, p.t).path_count());
    keep(service.cache().lookup(p.s, p.t).path_count());
  }
  core::ConstructionScratch scratch;
  const auto construct = [&](std::uint64_t k) {
    keep(core::node_disjoint_paths(net, pairs[k].s, pairs[k].t,
                                   core::ConstructionOptions{}, scratch)
             .paths.size());
  };
  for (std::uint64_t k = 0; k < 64; ++k) construct(k);  // warm the scratch

  // Each fresh pair goes through answer(), a bare lookup miss + materialize,
  // and a bare construction, in alternating order, so publication and the
  // service's own cost are paired per-pair differences.
  for (std::uint64_t k = 0; k < kMissCalls; ++k) {
    const Pair& p = pairs[k];
    const auto answer = [&] {
      ScopedSpan span{&log, "query.answer", k};
      keep(service.answer(query::PairQuery{.s = p.s, .t = p.t}).paths.size());
    };
    const auto bare = [&] {
      core::ContainerHandle handle;
      {
        ScopedSpan span{&log, "cache.lookup_miss", k};
        handle = cache.lookup(p.s, p.t);
      }
      ScopedSpan span{&log, "handle.materialize", k};
      keep(handle.materialize().paths.size());
    };
    const auto built = [&] {
      ScopedSpan span{&log, "construct.total", k};
      construct(k);
    };
    if (k % 2 == 0) {
      answer();
      bare();
      built();
    } else {
      built();
      bare();
      answer();
    }
  }
  const std::uint64_t allocations_before = thread_allocations();
  for (std::uint64_t k = 0; k < kMissCalls; ++k) construct(k);
  result.construct_heap_allocs =
      static_cast<double>(thread_allocations() - allocations_before) /
      static_cast<double>(kMissCalls);

  batched(log, "construct.route_select", kMissCalls, 1, [&](std::uint64_t k) {
    keep(core::select_cluster_routes(net, pairs[k].s, pairs[k].t).size());
  });

  // The endpoint fans, rebuilt from select_cluster_routes the way the
  // construction builds them: one exit walk per route that leaves s over
  // an internal edge, one entry walk per route that reaches t over one.
  struct FanInput {
    graph::Vertex ys = 0;
    graph::Vertex yt = 0;
    std::vector<graph::Vertex> exits;
    std::vector<graph::Vertex> entries;
  };
  std::vector<FanInput> fans;
  for (const Pair& p : pairs) {
    if (net.cluster_of(p.s) == net.cluster_of(p.t)) continue;
    FanInput fan;
    fan.ys = static_cast<graph::Vertex>(net.position_of(p.s));
    fan.yt = static_cast<graph::Vertex>(net.position_of(p.t));
    for (const core::ClusterRoute& route :
         core::select_cluster_routes(net, p.s, p.t)) {
      if (route.front() != net.gateway_dimension(p.s)) {
        fan.exits.push_back(route.front());
      }
      if (route.back() != net.gateway_dimension(p.t)) {
        fan.entries.push_back(route.back());
      }
    }
    fans.push_back(std::move(fan));
  }
  const graph::AdjacencyList& cluster = scratch.cluster_graph(kMissM);
  graph::FanWorkspace exit_fan;
  graph::FanWorkspace entry_fan;
  batched(log, "graph.fan_solve", fans.size(), 1, [&](std::uint64_t k) {
    const FanInput& fan = fans[k];
    keep(exit_fan.fan(cluster, fan.ys, fan.exits).size());
    keep(entry_fan.reverse_fan(cluster, fan.entries, fan.yt).size());
  });
}

// Median over k of minuend[k] - sum of subtrahends[k]: the spans of one
// pairing were recorded in lockstep, so index k is the same input in each.
double paired_median(const std::map<std::string, std::vector<double>>& spans,
                     const std::string& minuend,
                     const std::vector<std::string>& subtrahends) {
  const auto find = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? std::vector<double>{} : it->second;
  };
  std::vector<double> differences = find(minuend);
  for (const std::string& name : subtrahends) {
    const std::vector<double> values = find(name);
    if (values.size() != differences.size()) return 0.0;
    for (std::size_t k = 0; k < values.size(); ++k) {
      differences[k] -= values[k];
    }
  }
  return median(std::move(differences));
}

void fault_steps(std::uint64_t seed, SpanLog& log, LadderResult& result) {
  const core::HhcTopology net{kFaultM};
  const core::FaultModel faults = fault_schedule(net, seed);
  core::ContainerCache cache{net};
  warm_all_keys(cache);
  const fault::AdaptiveRouter router{net, &cache};

  // fault_churn's first two epochs, in order: the exact seeded outcome mix.
  std::vector<double> durations;
  for (std::uint64_t k = 0; k < 2 * kEpochQueries; ++k) {
    const query::PairQuery q = fault_query(net, faults, seed, k);
    const std::uint32_t span = log.open("fault.route", k);
    const query::RouteResult r = router.route(q);
    log.close(span);
    const bool dead_endpoint = faults.node_faulty_at(q.s, q.time) ||
                               faults.node_faulty_at(q.t, q.time);
    log.rename(span, r.used_fallback ? "fault.route_fallback"
                     : dead_endpoint ? "fault.route_dead_endpoint"
                                     : "fault.route_scan");
    const Span& s = log.spans()[span];
    durations.push_back(static_cast<double>(s.end_ns - s.start_ns));
    ++result.fault_routes;
    if (r.used_fallback) ++result.fault_fallback;
    if (r.level == query::DegradationLevel::kGuaranteed) {
      ++result.fault_guaranteed;
    }
    if (r.level == query::DegradationLevel::kDisconnected) {
      ++result.fault_disconnected;
    }
  }
  result.fault_route_median_ns = median(std::move(durations));

  struct Edge {
    core::Node u = 0;
    core::Node v = 0;
    std::uint64_t time = 0;
  };
  util::Xoshiro256 rng{mix64(seed ^ kLadderSalt)};
  std::array<Edge, 1024> edges{};
  for (Edge& e : edges) {
    e.u = rng.below(net.node_count());
    const auto dim = static_cast<unsigned>(rng.below(net.degree()));
    e.v = dim < net.m() ? net.internal_neighbor(e.u, dim)
                        : net.external_neighbor(e.u);
    e.time = rng.below(kFaultEpochs);
  }
  batched(log, "fault.edge_check", kBatches, kTinyReps / 4,
          [&](std::uint64_t k) {
            const Edge& e = edges[k & (edges.size() - 1)];
            keep(faults.edge_usable_at(e.u, e.v, e.time));
          });

  // A breaker with threshold 3 over a small pair set; one answer in four
  // is a disconnect, so streaks open and reset.
  query::CircuitBreaker breaker{3};
  std::array<Pair, 256> pairs{};
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    pairs[k] = stream_pair(net, seed ^ kLadderSalt, k);
  }
  batched(log, "fault.breaker_check", kBatches, kTinyReps / 4,
          [&](std::uint64_t k) {
            const Pair& p = pairs[k & (pairs.size() - 1)];
            if (!breaker.should_short_circuit(p.s, p.t)) {
              breaker.record(p.s, p.t, (k & 3) == 0);
            }
          });
}

}  // namespace

LadderResult run_ladder(std::uint64_t seed, std::size_t callers,
                        SpanLog& main_log, std::vector<SpanLog>& thread_logs) {
  LadderResult result;
  admission_steps(callers, main_log);
  obs_steps(thread_logs, main_log);
  hit_steps(seed, thread_logs, main_log);
  miss_steps(seed, main_log, result);
  fault_steps(seed, main_log, result);
  std::vector<const SpanLog*> logs{&main_log};
  for (const SpanLog& log : thread_logs) logs.push_back(&log);
  const auto spans = self_times(logs);
  for (const auto& [name, values] : spans) {
    result.self_ns[name] = median(values);
  }
  result.self_ns["query.view_over_lookup"] =
      paired_median(spans, "query.answer_view", {"cache.lookup_hit"});
  result.self_ns["query.answer_over_lookup"] = paired_median(
      spans, "query.answer", {"cache.lookup_miss", "handle.materialize"});
  result.self_ns["cache.lookup_over_construct"] =
      paired_median(spans, "cache.lookup_miss", {"construct.total"});
  return result;
}

}  // namespace perfbench
