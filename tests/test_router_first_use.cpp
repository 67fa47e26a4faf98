// The survivor search's first use in a process, from several threads at
// once. It reads one table per m, built by the first search at that m in
// the process and then shared by every thread: s's distance, and at every
// expansion the mask of dimensions that fall toward t, derived from the
// distances in the same build. Here four threads wait at a latch and then
// make their first fallbacks at m = 4 and at m = 3 together, so each
// table's build is raced, and every search expands nodes, so the masks are
// read: under ThreadSanitizer (CI's tsan job runs the `stress` label) the
// build must show no data race, and every thread's detours must be the
// same shortest paths. ctest runs each test in its own process, so no
// earlier test has built a table.
#include <gtest/gtest.h>

#include <deque>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "core/container_cache.hpp"
#include "core/fault_model.hpp"
#include "fault/adaptive_router.hpp"
#include "orbit_reference.hpp"
#include "util/rng.hpp"

namespace hhc::fault {
namespace {

using core::FaultModel;
using core::HhcTopology;
using core::Node;
using core::Path;

constexpr std::size_t kThreads = 4;

struct Query {
  const HhcTopology* net = nullptr;
  FaultModel faults;
  Node s = 0;
  Node t = 0;
};

// s and a t twelve random hops away, with the middle node of every path
// of the container the cache serves failed, so the route falls back to
// the survivor search.
Query blocked_query(const HhcTopology& net, util::Xoshiro256& rng) {
  Query q;
  q.net = &net;
  q.s = rng.below(net.node_count());
  q.t = q.s;
  for (int hop = 0; hop < 12; ++hop) {
    const auto nbrs = net.neighbors(q.t);
    q.t = nbrs[rng.below(nbrs.size())];
  }
  for (const Path& path :
       orbit_reference::expected_answer(net, q.s, q.t).paths) {
    q.faults.fail_node(path[path.size() / 2]);
  }
  return q;
}

// The hop count of a shortest s -> t path over the usable edges; 0 when t
// is unreachable.
std::size_t survivor_hops(const Query& q) {
  std::vector<std::uint32_t> dist(q.net->node_count(), ~0U);
  std::deque<Node> frontier{q.s};
  dist[q.s] = 0;
  while (!frontier.empty()) {
    const Node u = frontier.front();
    frontier.pop_front();
    for (const Node v : q.net->neighbors(u)) {
      if (dist[v] != ~0U || !q.faults.edge_usable_at(u, v, 0)) continue;
      dist[v] = dist[u] + 1;
      if (v == q.t) return dist[v];
      frontier.push_back(v);
    }
  }
  return 0;
}

TEST(RouterEquivalence, FirstFallbacksRaceToBuildTheDistanceTables) {
  const HhcTopology nets[] = {HhcTopology{4}, HhcTopology{3}};
  core::ContainerCache caches[] = {core::ContainerCache{nets[0]},
                                   core::ContainerCache{nets[1]}};
  util::Xoshiro256 rng{0xF1A};
  // Queries at m = 4 first, then at m = 3; each thread routes them all.
  std::vector<Query> queries;
  std::vector<std::size_t> cache_of;
  for (std::size_t k = 0; k < 2; ++k) {
    for (int i = 0; i < 3; ++i) {
      queries.push_back(blocked_query(nets[k], rng));
      cache_of.push_back(k);
    }
  }

  std::vector<std::vector<query::RouteResult>> got(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kThreads; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const AdaptiveRouter router{caches[cache_of[i]]};
        got[c].push_back(
            router.route(queries[i].s, queries[i].t, queries[i].faults));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const query::RouteResult& first = got[0][i];
    ASSERT_TRUE(first.used_fallback) << "query " << i;
    ASSERT_GT(first.search_expansions, 0U) << "query " << i;
    ASSERT_EQ(first.level, query::DegradationLevel::kBestEffort)
        << "query " << i;
    ASSERT_EQ(first.paths.size(), 1U);
    const Path& path = first.paths[0];
    EXPECT_EQ(path.size(), survivor_hops(q) + 1) << "query " << i;
    EXPECT_EQ(path.front(), q.s);
    EXPECT_EQ(path.back(), q.t);
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      EXPECT_TRUE(q.net->is_edge(path[j], path[j + 1]));
      EXPECT_TRUE(q.faults.edge_usable_at(path[j], path[j + 1], 0));
    }
    EXPECT_EQ(std::set<Node>(path.begin(), path.end()).size(), path.size());
    for (std::size_t c = 1; c < kThreads; ++c) {
      EXPECT_EQ(got[c][i].paths, first.paths)
          << "query " << i << " thread " << c;
      EXPECT_EQ(got[c][i].search_expansions, first.search_expansions);
      EXPECT_EQ(got[c][i].guard_expansions, first.guard_expansions);
    }
  }
}

}  // namespace
}  // namespace hhc::fault
