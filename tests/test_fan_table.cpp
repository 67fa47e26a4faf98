// Exhaustive bit-identity of the memoized endpoint fans.
//
// ConstructionScratch serves the construction's exit and entry fans from a
// per-thread table keyed on (m, apex, endpoint SET), filled once per key by
// solving the fan with the endpoints in ascending order. Handing the stored
// walks back in any other endpoint order is only correct because the
// FanWorkspace max flow is order-invariant: the endpoint order changes the
// sink's arc list and the result-slot mapping, and Dinic never walks out of
// the sink. This suite checks that claim over the whole key space for
// m = 1..4 — every apex, every m-subset of endpoints, each presented in
// ascending, descending and rotated order, through both the exit and the
// entry fan — against a fresh FanWorkspace solve of that exact order. At
// m = 5 there is no table; a seeded sample pins that the pass-through is
// identical too and fills nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/scratch.hpp"
#include "graph/vertex_disjoint.hpp"
#include "obs/metrics.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

using graph::Vertex;
using graph::VertexPath;

obs::Counter& fill_counter() {
  return obs::MetricRegistry::global().counter("construct.fan_memo_fills");
}

std::vector<VertexPath> copy_out(std::span<const VertexPath> fans) {
  return {fans.begin(), fans.end()};
}

// Checks the table against the solver for one (apex, endpoint order), both
// as an exit fan and as an entry fan; returns the number of mismatches.
std::size_t compare_one(unsigned m, Vertex apex,
                        const std::vector<Vertex>& ends,
                        ConstructionScratch& scratch,
                        graph::FanWorkspace& reference) {
  const graph::AdjacencyList& g = scratch.cluster_graph(m);
  std::size_t mismatches = 0;
  const auto exit_table = copy_out(scratch.exit_fans(m, apex, ends));
  const auto exit_solved = copy_out(reference.fan(g, apex, ends));
  if (exit_table != exit_solved) ++mismatches;
  const auto entry_table = copy_out(scratch.entry_fans(m, ends, apex));
  const auto entry_solved = copy_out(reference.reverse_fan(g, ends, apex));
  if (entry_table != entry_solved) ++mismatches;
  return mismatches;
}

TEST(FanTable, BitIdenticalToMaxFlowOverEveryKeyUpToM4) {
  // Key count per m: 2^m * C(2^m - 1, m).
  const std::uint64_t expected_keys[] = {0, 2, 12, 280, 21840};
  for (unsigned m = 1; m <= 4; ++m) {
    ConstructionScratch scratch;
    graph::FanWorkspace reference;
    const std::uint64_t fills_before = fill_counter().get();
    const std::uint32_t n = 1u << m;
    std::size_t cases = 0;
    std::size_t mismatches = 0;
    for (Vertex apex = 0; apex < n; ++apex) {
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (bits::popcount(mask) != static_cast<int>(m) ||
            bits::test(mask, apex)) {
          continue;
        }
        std::vector<Vertex> ends;
        for (Vertex v = 0; v < n; ++v) {
          if (bits::test(mask, v)) ends.push_back(v);
        }
        // Ascending (the fill order), descending, then rotated by one.
        mismatches += compare_one(m, apex, ends, scratch, reference);
        std::reverse(ends.begin(), ends.end());
        mismatches += compare_one(m, apex, ends, scratch, reference);
        std::reverse(ends.begin(), ends.end());
        std::rotate(ends.begin(), ends.begin() + 1, ends.end());
        mismatches += compare_one(m, apex, ends, scratch, reference);
        ++cases;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "m=" << m;
    EXPECT_EQ(cases, expected_keys[m]) << "m=" << m;
    // The exit and entry fans share one table, so each key fills once.
    EXPECT_EQ(fill_counter().get() - fills_before, expected_keys[m])
        << "m=" << m;
  }
}

TEST(FanTable, PassesThroughUntabledAtM5) {
  constexpr unsigned m = 5;
  ConstructionScratch scratch;
  graph::FanWorkspace reference;
  util::Xoshiro256 rng{0xFA5};
  const std::uint64_t fills_before = fill_counter().get();
  std::size_t mismatches = 0;
  for (int sample = 0; sample < 300; ++sample) {
    const auto apex = static_cast<Vertex>(rng.below(32));
    std::vector<Vertex> ends;
    while (ends.size() < m) {
      const auto v = static_cast<Vertex>(rng.below(32));
      if (v != apex && std::find(ends.begin(), ends.end(), v) == ends.end()) {
        ends.push_back(v);
      }
    }
    mismatches += compare_one(m, apex, ends, scratch, reference);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(fill_counter().get(), fills_before);
}

TEST(FanTable, RejectsMalformedFans) {
  ConstructionScratch scratch;
  const std::vector<Vertex> two = {1, 2};
  EXPECT_THROW((void)scratch.exit_fans(3, 0, two), std::logic_error);
  EXPECT_THROW((void)scratch.entry_fans(5, two, 0), std::logic_error);
  const std::vector<Vertex> with_apex = {0, 1, 2};
  EXPECT_THROW((void)scratch.exit_fans(3, 0, with_apex),
               std::invalid_argument);
  const std::vector<Vertex> repeated = {1, 1, 2};
  EXPECT_THROW((void)scratch.exit_fans(3, 0, repeated),
               std::invalid_argument);
}

}  // namespace
}  // namespace hhc::core
