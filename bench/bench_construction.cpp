// Experiment T3 — construction cost: constructive algorithm vs max flow.
//
// The paper's algorithmic claim is that the container is built in time
// polynomial in the *path length* (i.e. independent of N = 2^(2^m + m)),
// while the generic max-flow alternative must touch the whole network.
// google-benchmark measures both on the same random pair streams; the
// closing tables print the per-pair cost of the scratch-backed
// zero-allocation hot path (node_disjoint_paths with a ConstructionScratch)
// and the speedup over max flow.
//
// The steady-state column cycles a fixed pair stream, so after its first
// pass every endpoint fan comes out of the scratch's fan table (m <= 4).
// The first-pass column times one pass on a fresh scratch instead — the
// cost a stream of never-seen pairs pays while the table fills.
//
// `--smoke` runs a seconds-long subset (no google-benchmark registry, no
// m=4 max flow) — enough for CI to catch a structural perf regression.
// Both modes write machine-readable results to BENCH_construction.json;
// REPRODUCING.md describes the baseline-comparison workflow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baseline/maxflow_paths.hpp"
#include "core/disjoint.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hhc;

void BM_ConstructiveDisjointPaths(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  const auto pairs = core::sample_pairs(net, 512, 77);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 511];
    benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
  }
  state.SetLabel("N=" + std::to_string(net.node_count()));
}
BENCHMARK(BM_ConstructiveDisjointPaths)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

void BM_ArenaDisjointPaths(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  const auto pairs = core::sample_pairs(net, 512, 77);
  auto& scratch = core::tls_construction_scratch();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 511];
    const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
    benchmark::DoNotOptimize(set.paths.data());
  }
  state.SetLabel("N=" + std::to_string(net.node_count()));
}
BENCHMARK(BM_ArenaDisjointPaths)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

void BM_MaxflowDisjointPaths(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  const baseline::MaxflowBaseline exact{net};
  const auto pairs = core::sample_pairs(net, 64, 77);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 63];
    benchmark::DoNotOptimize(exact.disjoint_paths(s, t));
  }
  state.SetLabel("N=" + std::to_string(net.node_count()));
}
BENCHMARK(BM_MaxflowDisjointPaths)->DenseRange(1, 3)->Unit(benchmark::kMicrosecond);
// m = 4 max flow runs for seconds per query; one sample is enough.
BENCHMARK(BM_MaxflowDisjointPaths)->Arg(4)->Iterations(3)->Unit(benchmark::kMillisecond);

struct ConstructionRow {
  unsigned m = 0;
  double scratch_us = 0.0;     // scratch-backed entry point, per pair
  double first_pass_us = 0.0;  // same, one pass on a fresh scratch
};

// Per-pair cost of the scratch-backed construction on a fixed pair stream.
ConstructionRow measure_construction(unsigned m, std::size_t pair_count,
                                     std::size_t reps) {
  const core::HhcTopology net{m};
  const auto pairs = core::sample_pairs(net, pair_count, 77);
  ConstructionRow row;
  row.m = m;
  const double per_pass = static_cast<double>(pair_count);
  util::Stopwatch sw;

  // First pass on a fresh scratch: cluster graph, fan table, path buffer
  // and workspaces all start empty, and most fans are solved, not looked up.
  {
    const auto fresh = std::make_unique<core::ConstructionScratch>();
    sw.reset();
    for (const auto& [s, t] : pairs) {
      const auto set = core::node_disjoint_paths(net, s, t, {}, *fresh);
      benchmark::DoNotOptimize(set.paths.data());
    }
    row.first_pass_us = sw.micros() / per_pass;
  }

  auto& scratch = core::tls_construction_scratch();

  // Warm up: grows the path buffer and fan workspaces and fills the
  // cluster-graph cache so the timed loop sees the steady state.
  for (const auto& [s, t] : pairs) {
    const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
    benchmark::DoNotOptimize(set.paths.data());
  }

  // Best-of-reps: each rep times one full pass over the pair stream and the
  // minimum wins, so scheduler noise on a busy box does not inflate it.
  row.scratch_us = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    sw.reset();
    for (const auto& [s, t] : pairs) {
      const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
      benchmark::DoNotOptimize(set.paths.data());
    }
    row.scratch_us = std::min(row.scratch_us, sw.micros() / per_pass);
  }
  return row;
}

void emit_json(const std::vector<ConstructionRow>& rows, bool smoke) {
  core::JsonWriter json;
  json.begin_object()
      .key("bench").value("construction")
      .key("mode").value(smoke ? "smoke" : "full")
      .key("results").begin_array();
  for (const ConstructionRow& row : rows) {
    json.begin_object()
        .key("m").value(static_cast<std::uint64_t>(row.m))
        // The key names are historical; CI and the committed baseline
        // read them.
        .key("arena_us_per_pair").value(row.scratch_us)
        .key("arena_pairs_per_s").value(1e6 / row.scratch_us)
        .key("first_pass_us_per_pair").value(row.first_pass_us)
        .end_object();
  }
  json.end_array().end_object();
  std::ofstream out{"BENCH_construction.json"};
  out << json.str() << '\n';
  std::cout << "wrote BENCH_construction.json\n";
}

void print_scratch_table(bool smoke) {
  std::vector<ConstructionRow> rows;
  util::Table table{
      {"m", "scratch us/pair", "scratch pairs/s", "first-pass us/pair"}};
  for (unsigned m = 1; m <= 5; ++m) {
    const std::size_t pair_count = smoke ? 128 : 512;
    const std::size_t reps = smoke ? (m >= 4 ? 2 : 6) : (m >= 4 ? 8 : 30);
    const ConstructionRow row = measure_construction(m, pair_count, reps);
    rows.push_back(row);
    table.row()
        .add(static_cast<int>(m))
        .add(row.scratch_us, 2)
        .add(1e6 / row.scratch_us, 0)
        .add(row.first_pass_us, 2);
  }
  table.print(std::cout, "\nT3a: per-pair construction cost, scratch-backed");
  std::cout << "Expected shape: the cost grows with m as the containers "
               "grow, never with N\n(no heap traffic in the steady "
               "state). The first pass pays for the fan\nsolves the "
               "steady state looks up; at m = 5 there is no fan table, so "
               "the\ntwo columns meet.\n";
  emit_json(rows, smoke);
}

void print_speedup_table() {
  util::Table table{
      {"m", "constructive us/pair", "maxflow us/pair", "speedup"}};
  for (unsigned m = 1; m <= 4; ++m) {
    const core::HhcTopology net{m};
    const auto pairs = core::sample_pairs(net, 64, 99);

    // Warm up allocators/caches so the first timed call is representative.
    benchmark::DoNotOptimize(
        core::node_disjoint_paths(net, pairs[0].s, pairs[0].t));

    util::Stopwatch sw;
    for (const auto& [s, t] : pairs) {
      benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
    }
    const double constructive_us =
        sw.micros() / static_cast<double>(pairs.size());

    const baseline::MaxflowBaseline exact{net};
    const std::size_t flow_queries = m >= 4 ? 3 : pairs.size();
    sw.reset();
    for (std::size_t i = 0; i < flow_queries; ++i) {
      benchmark::DoNotOptimize(exact.disjoint_paths(pairs[i].s, pairs[i].t));
    }
    const double maxflow_us = sw.micros() / static_cast<double>(flow_queries);

    table.row()
        .add(static_cast<int>(m))
        .add(constructive_us, 2)
        .add(maxflow_us, 2)
        .add(maxflow_us / constructive_us, 1);
  }
  table.print(std::cout, "\nT3: per-pair construction cost (summary)");
  std::cout << "Expected shape: the constructive algorithm's cost is flat in "
               "N; max flow grows\nwith the network and becomes unusable "
               "beyond m = 4 (the constructive algorithm\nstill runs at m = 5 "
               "on 2^37 nodes).\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  if (smoke) {
    // CI-sized run: summary loops only, no google-benchmark registry and no
    // m=4 max flow (seconds per query).
    print_scratch_table(/*smoke=*/true);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_scratch_table(/*smoke=*/false);
  print_speedup_table();
  return 0;
}
