// Ablation A3 — translation-canonical container cache.
//
// Hotspot-style workloads repeat (cluster-difference, positions) triples
// constantly; the cache exploits the verified translation symmetry to
// serve them with an O(container) relabel instead of a fresh construction.
// A second table (EXPERIMENTS.md T8) fills the m <= 4 orbit table whole and
// compares the served containers' longest paths with direct construction.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/container_cache.hpp"
#include "core/metrics.hpp"
#include "core/orbit_table.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hhc;

void BM_DirectConstruction(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  // Hotspot: many sources, one destination -> few distinct canonical keys
  // per (ys, yt) pair, all sharing yt.
  const auto pairs = core::sample_pairs(net, 256, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 255];
    const core::Node hot = net.encode(net.cluster_of(t), 0);
    if (s == hot) continue;
    benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, hot));
  }
}
BENCHMARK(BM_DirectConstruction)->DenseRange(3, 5)->Unit(benchmark::kMicrosecond);

void BM_CachedConstruction(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  core::ContainerCache cache{net};
  const auto pairs = core::sample_pairs(net, 256, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 255];
    const core::Node hot = net.encode(net.cluster_of(t), 0);
    if (s == hot) continue;
    benchmark::DoNotOptimize(cache.lookup(s, hot));
  }
  state.SetLabel("entries=" + std::to_string(cache.size()));
}
BENCHMARK(BM_CachedConstruction)->DenseRange(3, 5)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Summary with a workload that repeats canonical triples heavily.
  using namespace hhc;
  util::Table table{{"m", "queries", "direct ms", "cached ms", "speedup",
                     "hit rate %"}};
  for (unsigned m = 3; m <= 5; ++m) {
    const core::HhcTopology net{m};
    // 64 distinct canonical triples, queried 64x each under translations.
    std::vector<std::pair<core::Node, core::Node>> queries;
    util::Xoshiro256 rng{42};
    for (int base = 0; base < 64; ++base) {
      const std::uint64_t xdiff = rng.below(net.cluster_count() - 1) + 1;
      const std::uint64_t ys = rng.below(net.cluster_size());
      const std::uint64_t yt = rng.below(net.cluster_size());
      for (int rep = 0; rep < 64; ++rep) {
        const std::uint64_t a = rng.below(net.cluster_count());
        queries.emplace_back(net.encode(a, ys), net.encode(a ^ xdiff, yt));
      }
    }
    util::Stopwatch sw;
    for (const auto& [s, t] : queries) {
      benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
    }
    const double direct_ms = sw.millis();
    core::ContainerCache cache{net};
    sw.reset();
    for (const auto& [s, t] : queries) {
      benchmark::DoNotOptimize(cache.lookup(s, t));
    }
    const double cached_ms = sw.millis();
    table.row()
        .add(static_cast<int>(m))
        .add(queries.size())
        .add(direct_ms, 1)
        .add(cached_ms, 1)
        .add(direct_ms / cached_ms, 2)
        .add(100.0 * static_cast<double>(cache.hits()) /
                 static_cast<double>(queries.size()),
             1);
  }
  table.print(std::cout, "\nA3: container cache on translation-heavy workload "
                         "(64 triples x 64 translations)");
  std::cout << "Expected shape: ~98% hit rate; speedup grows with m since the "
               "construction cost\nrises while the relabel stays linear in "
               "the (smaller) output.\n";

  util::Table orbits{{"m", "orbits", "table bytes", "fill ms",
                      "longest direct", "longest served"}};
  for (unsigned m = 1; m <= core::OrbitTable::kMaxM; ++m) {
    const core::HhcTopology net{m};
    core::OrbitTable orbit{net, {}};
    util::Stopwatch sw;
    for (core::Node key = 1; key < net.cluster_count() * net.cluster_size();
         ++key) {
      const auto form =
          orbit.canonical(net.cluster_of(key), 0, net.position_of(key));
      if (form.key == key) benchmark::DoNotOptimize(orbit.materialize(0, key));
    }
    const double fill_ms = sw.millis();
    double direct = 0.0;
    double served = 0.0;
    const auto pairs = core::sample_pairs(net, 20000, 777);
    for (const auto& [s, t] : pairs) {
      direct += static_cast<double>(core::node_disjoint_paths(net, s, t).max_length());
      served += static_cast<double>(orbit.materialize(s, t).max_length());
    }
    const auto n = static_cast<double>(pairs.size());
    orbits.row()
        .add(static_cast<int>(m))
        .add(orbit.entries())
        .add(orbit.bytes())
        .add(fill_ms, 1)
        .add(direct / n, 3)
        .add(served / n, 3);
  }
  orbits.print(std::cout, "\nT8: one container per automorphism orbit "
                          "(mean longest path over 20,000 random pairs)");
  std::cout << "Expected shape: 7 / 39 / 479 / 52,767 orbits; served "
               "containers no longer than\ndirect construction on average.\n";
  return 0;
}
