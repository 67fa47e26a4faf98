// AdaptiveRouter against the router it replaced.
//
// The oracle below keeps the original implementation verbatim: the container
// scan probes every hop with FaultModel::edge_usable_at (3 probes), and the
// survivor BFS walks HhcTopology::neighbors through a std::deque with a
// std::unordered_map parent map (its deadline poll is left out: these
// queries carry no deadline). The oracle scans the container the router's
// ContainerCache serves: at m <= 4 the orbit image of the representative's
// construction, at m = 5 the construction itself (orbit_reference.hpp). At
// m <= 4 the production router scans the pair's orbit record in place
// against per-thread usable-edge bytes, one per node; at m = 5 it scans the
// lookup() handle in place through a per-thread fault snapshot. It searches
// the same usable-edge bytes with epoch-stamped marks, by A* under the
// fault-free HHC distance from the more damaged endpoint toward the other,
// beside a guard BFS from the other. Every query here
// must get the same level, outcome, blocked count and fallback flag from both,
// and the same path whenever the container serves it. A detour may take
// different nodes: it must have the oracle's hop count, run s -> t over
// topology edges usable at the query's time, and repeat no node. At m = 5,
// where no sweep runs, a fully cut container must answer kShed.
//
// Cases are seeded: m = 2..5, node and link faults with permanent and
// transient windows, random query times, containers blocked on purpose,
// isolated endpoints (disconnected pairs) and faulty endpoints. Further
// cases alternate models whose snapshots share an interval and a fact
// count, feed facts that name no node or edge of the topology, check that
// a detour is the same on every call and every thread, route every pair
// at m = 2 (and 2,000 at m = 3) under dense faults, pin the search's work
// and a digest of every route on a fault_churn-shaped schedule at m = 3,
// hold a churn-shaped schedule at m = 4 to the oracle and pin its work and
// routes too, route both schedules' cut pairs in both directions, and
// check the search's distance table and its masks of falling dimensions
// against BFS distances (exhaustively at m <= 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/fault_model.hpp"
#include "core/metrics.hpp"
#include "core/orbit_table.hpp"
#include "fault/adaptive_router.hpp"
#include "orbit_reference.hpp"
#include "util/rng.hpp"

namespace hhc::fault {
namespace {

using core::FaultModel;
using core::HhcTopology;
using core::Node;
using core::Path;

// ---- oracle: the router before the scratch rewrite ----------------------

bool reference_path_survives(const Path& path, const FaultModel& faults,
                             std::uint64_t time) {
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    if (!faults.edge_usable_at(path[j], path[j + 1], time)) return false;
  }
  return true;
}

Path reference_bfs(const HhcTopology& net, Node s, Node t,
                   const FaultModel& faults, std::uint64_t time) {
  std::unordered_map<Node, Node> parent;
  parent.emplace(s, s);
  std::deque<Node> frontier{s};
  while (!frontier.empty()) {
    const Node u = frontier.front();
    frontier.pop_front();
    for (const Node v : net.neighbors(u)) {
      if (parent.count(v) > 0) continue;
      if (!faults.edge_usable_at(u, v, time)) continue;
      parent.emplace(v, u);
      if (v == t) {
        Path path{t};
        for (Node w = t; w != s; w = parent.at(w)) path.push_back(parent.at(w));
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(v);
    }
  }
  return {};
}

// Scans the container the router's cache serves; past m = 4, where the
// router runs no sweep, a fully cut container is shed.
query::RouteResult reference_route(const HhcTopology& net, Node s, Node t,
                                   const FaultModel& faults,
                                   std::uint64_t time) {
  query::RouteResult result;
  if (faults.node_faulty_at(s, time) || faults.node_faulty_at(t, time)) {
    return result;
  }
  if (s == t) {
    result.paths = {Path{s}};
    result.level = query::DegradationLevel::kGuaranteed;
    return result;
  }
  const core::DisjointPathSet container =
      orbit_reference::expected_answer(net, s, t);
  const Path* best = nullptr;
  for (const Path& path : container.paths) {
    if (!reference_path_survives(path, faults, time)) {
      ++result.container_paths_blocked;
      continue;
    }
    if (best == nullptr || path.size() < best->size()) best = &path;
  }
  if (best != nullptr) {
    result.paths.push_back(*best);
    result.level = query::DegradationLevel::kGuaranteed;
    return result;
  }
  if (!core::OrbitTable::covers(net.m())) {
    result.outcome = query::RouteOutcome::kShed;
    return result;
  }
  result.used_fallback = true;
  Path detour = reference_bfs(net, s, t, faults, time);
  result.level = detour.empty() ? query::DegradationLevel::kDisconnected
                                : query::DegradationLevel::kBestEffort;
  if (!detour.empty()) result.paths.push_back(std::move(detour));
  return result;
}

// ---- seeded cases -------------------------------------------------------

struct Case {
  FaultModel faults;
  Node s = 0;
  Node t = 0;
  std::uint64_t time = 0;
};

enum class Shape { kRandom, kBlocked, kIsolateT, kIsolateS, kDeadEndpoint };

// Permanent with probability `permanent`, else a finite window inside
// [0, 200); queries land in [0, 200), so a transient fault is active for
// some of them and not for others.
core::FaultWindow random_window(util::Xoshiro256& rng, double permanent) {
  if (rng.chance(permanent)) return {};
  const std::uint64_t fail = rng.below(100);
  return {fail, fail + 1 + rng.below(100)};
}

// Background faults are permanent half the time; the faults a shape aims
// at the container or an endpoint mostly are, so the shape usually holds.
void fail_node(FaultModel& faults, Node v, util::Xoshiro256& rng,
               double permanent = 0.85) {
  const core::FaultWindow w = random_window(rng, permanent);
  faults.fail_node(v, w.fail_time, w.repair_time);
}

void fail_link(FaultModel& faults, Node u, Node v, util::Xoshiro256& rng,
               double permanent = 0.85) {
  const core::FaultWindow w = random_window(rng, permanent);
  faults.fail_link(u, v, w.fail_time, w.repair_time);
}

Case make_case(const HhcTopology& net, Shape shape, util::Xoshiro256& rng) {
  Case c;
  const std::uint64_t n = net.node_count();
  c.s = rng.below(n);
  c.t = rng.chance(0.02) ? c.s : rng.below(n);
  c.time = rng.below(200);

  // Background faults anywhere, endpoints included.
  const std::uint64_t background = rng.below(3 * net.m() + 2);
  for (std::uint64_t k = 0; k < background; ++k) {
    fail_node(c.faults, rng.below(n), rng, 0.5);
    const Node u = rng.below(n);
    const auto nbrs = net.neighbors(u);
    fail_link(c.faults, u, nbrs[rng.below(nbrs.size())], rng, 0.5);
  }

  switch (shape) {
    case Shape::kRandom:
      break;
    case Shape::kBlocked:
      // One interior node or one link per container path, so the scan
      // comes up empty whenever those faults are active at c.time.
      if (c.s != c.t) {
        const auto container = orbit_reference::expected_answer(net, c.s, c.t);
        for (const Path& path : container.paths) {
          const std::size_t j = 1 + rng.below(path.size() - 1);
          if (j + 1 < path.size() && rng.chance(0.5)) {
            fail_node(c.faults, path[j], rng);
          } else {
            fail_link(c.faults, path[j - 1], path[j], rng);
          }
        }
      }
      break;
    case Shape::kIsolateT:
      for (const Node v : net.neighbors(c.t)) {
        if (rng.chance(0.5)) {
          fail_node(c.faults, v, rng);
        } else {
          fail_link(c.faults, c.t, v, rng);
        }
      }
      break;
    case Shape::kIsolateS:
      for (const Node v : net.neighbors(c.s)) fail_link(c.faults, c.s, v, rng);
      break;
    case Shape::kDeadEndpoint:
      fail_node(c.faults, rng.chance(0.5) ? c.s : c.t, rng);
      break;
  }
  return c;
}

struct Tally {
  std::size_t fallbacks = 0;
  std::size_t best_effort = 0;
  std::size_t disconnected_sweeps = 0;
  std::size_t shed = 0;
};

// A best-effort detour: as long as the oracle's, from c.s to c.t over
// edges usable at c.time, with no node twice.
void expect_shortest_detour(const HhcTopology& net, const Case& c,
                            const Path& got, const Path& want) {
  ASSERT_EQ(got.size(), want.size())
      << "m=" << net.m() << " s=" << c.s << " t=" << c.t << " time=" << c.time;
  ASSERT_EQ(got.front(), c.s);
  ASSERT_EQ(got.back(), c.t);
  for (std::size_t j = 0; j + 1 < got.size(); ++j) {
    ASSERT_TRUE(net.is_edge(got[j], got[j + 1]))
        << got[j] << "-" << got[j + 1] << " is not an edge";
    ASSERT_TRUE(c.faults.edge_usable_at(got[j], got[j + 1], c.time))
        << got[j] << "-" << got[j + 1] << " is not usable at " << c.time;
  }
  ASSERT_EQ(std::set<Node>(got.begin(), got.end()).size(), got.size())
      << "a node repeats";
}

// Routes `c` through `router`; any field that differs from the oracle's
// answer `want` fails the test with the case's coordinates. A detour is
// held to expect_shortest_detour instead of the oracle's node sequence.
void expect_equivalent(const HhcTopology& net, const AdaptiveRouter& router,
                       const Case& c, const query::RouteResult& want,
                       Tally& tally) {
  const query::RouteResult got = router.route(c.s, c.t, c.faults, c.time);
  if (want.level == query::DegradationLevel::kBestEffort) {
    ASSERT_EQ(got.paths.size(), 1u) << "s=" << c.s << " t=" << c.t;
    expect_shortest_detour(net, c, got.paths[0], want.paths[0]);
  } else {
    ASSERT_EQ(got.paths, want.paths) << "m=" << net.m() << " s=" << c.s
                                     << " t=" << c.t << " time=" << c.time;
  }
  ASSERT_EQ(got.level, want.level) << "s=" << c.s << " t=" << c.t;
  ASSERT_EQ(got.outcome, want.outcome) << "s=" << c.s << " t=" << c.t;
  ASSERT_EQ(got.container_paths_blocked, want.container_paths_blocked)
      << "s=" << c.s << " t=" << c.t;
  ASSERT_EQ(got.used_fallback, want.used_fallback)
      << "s=" << c.s << " t=" << c.t;
  if (want.outcome == query::RouteOutcome::kShed) ++tally.shed;
  if (want.used_fallback) {
    ++tally.fallbacks;
    if (want.level == query::DegradationLevel::kBestEffort) {
      ++tally.best_effort;
    } else {
      ++tally.disconnected_sweeps;
    }
  }
}

// Routes `count` seeded cases twice each through one router (a miss that
// fills, then a hit), holding each answer to the oracle's.
Tally run_cases(core::ContainerCache& cache, std::size_t count,
                std::uint64_t seed, const std::vector<Shape>& shapes) {
  const HhcTopology& net = cache.net();
  const AdaptiveRouter router{cache};
  util::Xoshiro256 rng{seed};
  Tally tally;
  for (std::size_t i = 0; i < count; ++i) {
    const Case c = make_case(net, shapes[i % shapes.size()], rng);
    const query::RouteResult want =
        reference_route(net, c.s, c.t, c.faults, c.time);
    expect_equivalent(net, router, c, want, tally);
    expect_equivalent(net, router, c, want, tally);
    if (::testing::Test::HasFatalFailure()) return tally;
  }
  return tally;
}

void run_cases(unsigned m, std::size_t count, std::uint64_t seed,
               const std::vector<Shape>& shapes) {
  const HhcTopology net{m};
  core::ContainerCache cache{net};
  const Tally tally = run_cases(cache, count, seed, shapes);
  if (::testing::Test::HasFatalFailure()) return;
  // The seeds exercise every branch, not just the container scan.
  EXPECT_GT(tally.best_effort, 0u) << "m=" << m;
  EXPECT_GT(tally.disconnected_sweeps, 0u) << "m=" << m;
}

const std::vector<Shape> kAllShapes = {Shape::kRandom, Shape::kBlocked,
                                       Shape::kBlocked, Shape::kIsolateT,
                                       Shape::kIsolateS, Shape::kDeadEndpoint};

TEST(RouterEquivalence, MatchesReferenceM2) {
  run_cases(2, 600, 0xB17, kAllShapes);
}

TEST(RouterEquivalence, MatchesReferenceM3) {
  run_cases(3, 300, 0xB18, kAllShapes);
}

TEST(RouterEquivalence, MatchesReferenceM4) {
  // An isolated t makes the oracle's BFS sweep all 2^20 nodes, so m = 4
  // takes few such cases; the rest are blocked containers and cut-off
  // sources.
  run_cases(4, 12, 0xB19,
            {Shape::kBlocked, Shape::kIsolateS, Shape::kDeadEndpoint,
             Shape::kBlocked, Shape::kRandom, Shape::kBlocked,
             Shape::kIsolateS, Shape::kBlocked, Shape::kDeadEndpoint,
             Shape::kBlocked, Shape::kRandom, Shape::kIsolateT});
}

TEST(RouterEquivalence, MatchesReferenceContainerScanM5) {
  // At m = 5 the router scans the lookup() handle in place and runs no
  // sweep. The cache holds 16 classes, so the first cases scan handles
  // borrowed from its store and the rest scan owning copies.
  const HhcTopology net{5};
  core::ContainerCache cache{
      net, core::ContainerCache::Config{.shards = 1,
                                        .max_entries_per_shard = 16}};
  const Tally tally =
      run_cases(cache, 90, 0xB21,
                {Shape::kRandom, Shape::kBlocked, Shape::kDeadEndpoint});
  if (HasFatalFailure()) return;
  EXPECT_EQ(tally.fallbacks, 0u);
  EXPECT_GT(tally.shed, 20u);
  EXPECT_EQ(cache.size(), 16u);
}

TEST(RouterEquivalence, SweepsInterleavedAcrossTopologies) {
  // One thread's scratch serves every topology: alternating m must not
  // leak a previous sweep's marks into the next.
  const HhcTopology nets[] = {HhcTopology{2}, HhcTopology{3}, HhcTopology{1}};
  core::ContainerCache caches[] = {core::ContainerCache{nets[0]},
                                   core::ContainerCache{nets[1]},
                                   core::ContainerCache{nets[2]}};
  util::Xoshiro256 rng{0xB1A};
  Tally tally;
  for (std::size_t i = 0; i < 600; ++i) {
    const HhcTopology& net = nets[i % 3];
    const AdaptiveRouter router{caches[i % 3]};
    const Shape shape = kAllShapes[rng.below(kAllShapes.size())];
    const Case c = make_case(net, shape, rng);
    expect_equivalent(net, router, c,
                      reference_route(net, c.s, c.t, c.faults, c.time), tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.fallbacks, 100u);
}

// fault_churn's shape: during [e, e+1) for each epoch e < `epochs`, a
// fraction of the nodes and of the links fail; one node is down for good.
FaultModel epoch_schedule(const HhcTopology& net, std::uint64_t epochs,
                          double node_frac, double link_frac,
                          util::Xoshiro256& rng) {
  FaultModel faults;
  const std::uint64_t n = net.node_count();
  const auto nodes = static_cast<std::uint64_t>(static_cast<double>(n) *
                                                node_frac) + 1;
  const auto links = static_cast<std::uint64_t>(
      static_cast<double>(n * net.degree() / 2) * link_frac) + 1;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::uint64_t k = 0; k < nodes; ++k) {
      faults.fail_node(rng.below(n), e, e + 1);
    }
    for (std::uint64_t k = 0; k < links; ++k) {
      const Node u = rng.below(n);
      const auto nbrs = net.neighbors(u);
      faults.fail_link(u, nbrs[rng.below(nbrs.size())], e, e + 1);
    }
  }
  faults.fail_node(rng.below(n));
  return faults;
}

TEST(RouterEquivalence, SnapshotFollowsModelsTopologiesAndTimes) {
  // One thread's fault snapshot serves every query below in turn. Each
  // block of eight routes keeps one model and topology while its time
  // steps across two epoch boundaries; the next block switches topology
  // (m = 1..4) and model. Routes thus alternate between reusing the
  // snapshot and re-resolving it for a new interval or a new model, and
  // every answer must be the oracle's. m = 4 gets sparse faults, so its
  // BFS sweeps stay rare.
  constexpr std::uint64_t kEpochs = 6;
  util::Xoshiro256 rng{0xB1C};
  std::vector<HhcTopology> nets;
  std::vector<std::vector<FaultModel>> models;
  for (unsigned m = 1; m <= 4; ++m) {
    nets.emplace_back(m);
    const double node_frac = m < 4 ? 0.02 : 0.00002;
    const double link_frac = m < 4 ? 0.10 : 0.0001;
    models.push_back({});
    for (int k = 0; k < 2; ++k) {
      models.back().push_back(
          epoch_schedule(nets.back(), kEpochs, node_frac, link_frac, rng));
    }
  }
  std::deque<core::ContainerCache> caches;
  for (const HhcTopology& net : nets) caches.emplace_back(net);
  Tally tally;
  for (std::size_t block = 0; block < 250; ++block) {
    const HhcTopology& net = nets[block % nets.size()];
    const FaultModel& faults =
        models[block % nets.size()][(block / nets.size()) % 2];
    const AdaptiveRouter router{caches[block % nets.size()]};
    const std::uint64_t first = rng.below(kEpochs);
    for (std::uint64_t k = 0; k < 8; ++k) {
      Case c;
      c.s = rng.below(net.node_count());
      c.t = rng.below(net.node_count());
      c.time = first + k / 3;
      c.faults = faults;
      expect_equivalent(net, router, c,
                        reference_route(net, c.s, c.t, faults, c.time), tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.best_effort, 20u);
  EXPECT_GT(tally.disconnected_sweeps, 0u);
}

TEST(RouterEquivalence, ModelRebuiltAtOneAddressIsReResolved) {
  // Two different models live at one address in turn; the second must not
  // be answered from the snapshot resolved for the first.
  const HhcTopology net{2};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(9, 3);
  std::optional<FaultModel> slot;
  const FaultModel* address = nullptr;
  for (int round = 0; round < 4; ++round) {
    slot.emplace();
    if (round % 2 == 0) slot->fail_node(t);
    if (address != nullptr) {
      ASSERT_EQ(&*slot, address);
    }
    address = &*slot;
    const query::RouteResult want = reference_route(net, s, t, *slot, 0);
    EXPECT_EQ(want.level, round % 2 == 0
                              ? query::DegradationLevel::kDisconnected
                              : query::DegradationLevel::kGuaranteed);
    const query::RouteResult got = router.route(s, t, *slot);
    EXPECT_EQ(got.paths, want.paths) << "round " << round;
    EXPECT_EQ(got.level, want.level) << "round " << round;
    slot.reset();
  }
}

// Fails the middle node of every path of the container the cache serves,
// so the scan comes up empty and the route takes the survivor-search
// fallback.
FaultModel block_container(const HhcTopology& net, Node s, Node t) {
  FaultModel faults;
  for (const Path& path : orbit_reference::expected_answer(net, s, t).paths) {
    faults.fail_node(path[path.size() / 2]);
  }
  return faults;
}

TEST(RouterEquivalence, SurvivesSweepStampWrap) {
  // The scratch's 16-bit sweep stamp wraps after 65,535 sweeps. On a fresh
  // thread, sweep 1 and sweep 65,536 (the first after the wrap) carry the
  // same stamp, and both run the same wide m = 3 detour: had the wrap not
  // cleared the table, the second would find the first's marks live and
  // take a different path or stop early. The sweeps in between are cheap
  // m = 1 fallbacks.
  const HhcTopology wide{3};
  const Node s = wide.encode(0, 0);
  const Node t = wide.encode(177, 6);
  const FaultModel wide_faults = block_container(wide, s, t);
  const query::RouteResult want = reference_route(wide, s, t, wide_faults, 0);
  ASSERT_EQ(want.level, query::DegradationLevel::kBestEffort);

  const HhcTopology ring{1};
  const Node rs = ring.encode(0, 0);
  const Node rt = ring.encode(3, 1);
  const FaultModel ring_faults = block_container(ring, rs, rt);
  const query::RouteResult ring_want =
      reference_route(ring, rs, rt, ring_faults, 0);
  ASSERT_TRUE(ring_want.used_fallback);

  core::ContainerCache wide_cache{wide};
  core::ContainerCache ring_cache{ring};
  std::vector<query::RouteResult> wide_got;
  std::size_t ring_mismatches = 0;
  std::thread sweeper([&] {
    const AdaptiveRouter wide_router{wide_cache};
    const AdaptiveRouter ring_router{ring_cache};
    wide_got.push_back(wide_router.route(s, t, wide_faults));
    for (std::size_t sweep = 2; sweep <= 65'535; ++sweep) {
      const query::RouteResult r = ring_router.route(rs, rt, ring_faults);
      if (r.paths != ring_want.paths || r.level != ring_want.level) {
        ++ring_mismatches;
      }
    }
    wide_got.push_back(wide_router.route(s, t, wide_faults));  // wrapped
    wide_got.push_back(wide_router.route(s, t, wide_faults));
  });
  sweeper.join();

  EXPECT_EQ(ring_mismatches, 0u);
  ASSERT_EQ(wide_got[0].paths.size(), 1u);
  const Case wide_case{wide_faults, s, t, 0};
  expect_shortest_detour(wide, wide_case, wide_got[0].paths[0],
                         want.paths[0]);
  for (const query::RouteResult& got : wide_got) {
    EXPECT_EQ(got.paths, wide_got[0].paths);
    EXPECT_EQ(got.level, want.level);
  }
}

// Routes `count` random pairs against `models[i % models.size()]` and
// holds each answer to the oracle's.
Tally route_alternating(const HhcTopology& net,
                        const std::vector<FaultModel>& models,
                        std::size_t count, util::Xoshiro256& rng) {
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  Tally tally;
  for (std::size_t i = 0; i < count; ++i) {
    Case c;
    c.faults = models[i % models.size()];
    c.s = rng.below(net.node_count());
    c.t = rng.below(net.node_count());
    expect_equivalent(net, router, c,
                      reference_route(net, c.s, c.t, c.faults, c.time), tally);
    if (::testing::Test::HasFatalFailure()) return tally;
  }
  return tally;
}

FaultModel::RandomSpec dense_spec(const HhcTopology& net) {
  // About 3% of the nodes and 12% of the links, so most containers are
  // cut and most routes sweep.
  const std::uint64_t n = net.node_count();
  return {.node_faults = static_cast<std::size_t>(n / 32),
          .internal_link_faults = static_cast<std::size_t>(n * net.m() / 16),
          .external_link_faults = static_cast<std::size_t>(n / 16)};
}

TEST(RouterEquivalence, ProjectionFollowsSnapshotIdentity) {
  // Two models whose faults are all permanent, so their snapshots cover
  // the same interval, and which hold the same number of facts, routed
  // alternately on one thread. The sweep reads a usable-edge projection of
  // the snapshot; one keyed on less than the snapshot's identity (say the
  // interval and the fact count) would answer one model's sweeps from the
  // other's bytes.
  for (const unsigned m : {2U, 3U}) {
    const HhcTopology net{m};
    util::Xoshiro256 rng{0xB1E + m};
    std::vector<FaultModel> models;
    for (int k = 0; k < 2; ++k) {
      models.push_back(FaultModel::random(net, dense_spec(net), 0, 1, rng));
    }
    ASSERT_EQ(models[0].fault_count(), models[1].fault_count());
    const Tally tally = route_alternating(net, models, 300, rng);
    if (HasFatalFailure()) return;
    EXPECT_GT(tally.best_effort, 60u) << "m=" << m;
  }
}

TEST(RouterEquivalence, FactsOutsideTheTopologyBlockNothing) {
  // A model may name nodes beyond the topology's node count, and links
  // between nodes that are not adjacent. Neither blocks an edge, so the
  // projection must skip them (and, under ASan, write nothing outside its
  // bytes) while the real faults beside them still cut containers.
  for (const unsigned m : {2U, 3U}) {
    const HhcTopology net{m};
    const std::uint64_t n = net.node_count();
    util::Xoshiro256 rng{0xB1F + m};
    FaultModel faults = FaultModel::random(net, dense_spec(net), 0, 1, rng);
    faults.fail_node(n);
    faults.fail_node(n + 17);
    faults.fail_node((Node{1} << 37) - 1);
    faults.fail_link(n - 1, n);          // one end outside
    faults.fail_link(n, n + 1);          // an internal dimension, outside
    faults.fail_link(net.encode(0, 0), net.encode(0, 3));  // two Y bits
    // The external edge at Y = 1 flips X bit 1; X bit 0 is no edge there.
    faults.fail_link(net.encode(0, 1), net.encode(1, 1));
    faults.fail_link(net.encode(4, 0), net.encode(5, 1));  // X and Y bits
    const Tally tally = route_alternating(net, {faults}, 300, rng);
    if (HasFatalFailure()) return;
    EXPECT_GT(tally.best_effort, 60u) << "m=" << m;
  }
}

TEST(RouterEquivalence, DetourIsTheSameOnEveryCallAndThread) {
  // The search order depends only on the snapshot and (s, t), not on what
  // the thread's scratch held before or on which thread routes: a detour
  // routed twice on one thread, other detours in between, and once on a
  // second thread (with its own snapshot, usable-edge bytes and sweep
  // marks) is the same path each time.
  const HhcTopology net{3};
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  util::Xoshiro256 rng{0xB1D};
  std::vector<Case> cases;
  for (int attempt = 0; attempt < 400 && cases.size() < 24; ++attempt) {
    Case c = make_case(net, Shape::kBlocked, rng);
    if (reference_route(net, c.s, c.t, c.faults, c.time).level ==
        query::DegradationLevel::kBestEffort) {
      cases.push_back(std::move(c));
    }
  }
  ASSERT_GE(cases.size(), 10u);
  const auto route_all = [&] {
    std::vector<std::vector<Path>> paths;
    for (const Case& c : cases) {
      paths.push_back(router.route(c.s, c.t, c.faults, c.time).paths);
    }
    return paths;
  };
  const std::vector<std::vector<Path>> first = route_all();
  const std::vector<std::vector<Path>> again = route_all();
  std::vector<std::vector<Path>> other;
  std::thread{[&] { other = route_all(); }}.join();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(first[i].size(), 1u) << "s=" << cases[i].s << " t=" << cases[i].t;
    EXPECT_EQ(again[i], first[i]) << "s=" << cases[i].s << " t=" << cases[i].t;
    EXPECT_EQ(other[i], first[i]) << "s=" << cases[i].s << " t=" << cases[i].t;
  }
}

// About 5% of the nodes and 25% of the links down, all permanent, drawn
// from `rng`: most containers are cut, and many pairs are disconnected.
FaultModel very_dense_faults(const HhcTopology& net, util::Xoshiro256& rng) {
  const std::uint64_t n = net.node_count();
  const FaultModel::RandomSpec spec{
      .node_faults = static_cast<std::size_t>(n / 20),
      .internal_link_faults = static_cast<std::size_t>(n * net.m() / 8),
      .external_link_faults = static_cast<std::size_t>(n / 8)};
  return FaultModel::random(net, spec, rng.below(n), rng.below(n), rng);
}

TEST(RouterEquivalence, DenseFaultsKeepDetoursShortest) {
  // Fault sets at a density where the survivor search does most of the
  // routing. At m = 2 and 3, twenty sets of about 5% of the nodes and 25%
  // of the links: every ordered pair is routed at m = 2, 2,000 sampled ones
  // at m = 3. At m = 4, one set of dense_spec's 3% and 12% and 8 sampled
  // pairs, the first with the largest h at m = 4, the diameter 2^(m + 1) =
  // 32 (s and t at position 0 and every cluster bit apart), so the
  // search's counting sort meets its whole key range. Each answer is held
  // to the oracle's: a detour as short as the BFS distance over the survivors,
  // over usable edges, and kDisconnected exactly when t is unreachable.
  for (const unsigned m : {2U, 3U, 4U}) {
    const HhcTopology net{m};
    core::ContainerCache cache{net};
    const AdaptiveRouter router{cache};
    const std::uint64_t n = net.node_count();
    util::Xoshiro256 rng{0xB20 + m};
    Tally tally;
    for (int set = 0; set < (m == 4 ? 1 : 20); ++set) {
      Case c;
      c.faults = m == 4 ? FaultModel::random(net, dense_spec(net), 0, 1, rng)
                        : very_dense_faults(net, rng);
      const std::uint64_t pairs = m == 2 ? n * n : m == 3 ? 100 : 8;
      for (std::uint64_t k = 0; k < pairs; ++k) {
        c.s = m == 2 ? k / n : rng.below(n);
        c.t = m == 2 ? k % n : rng.below(n);
        if (m == 4 && k == 0) {
          c.s = net.encode(0, 0);
          c.t = net.encode((Node{1} << (1U << m)) - 1, 0);
        }
        expect_equivalent(net, router, c,
                          reference_route(net, c.s, c.t, c.faults, c.time),
                          tally);
        if (HasFatalFailure()) return;
      }
    }
    // 31,280 and 12,332 at m = 2, 1,577 and 33 at m = 3, 7 and 0 at m = 4.
    EXPECT_GT(tally.best_effort, m == 2 ? 20'000U : m == 3 ? 1'000U : 4U)
        << "m=" << m;
    if (m < 4) {
      EXPECT_GT(tally.disconnected_sweeps, m == 2 ? 5'000U : 10U)
          << "m=" << m;
    }
  }
}

// A schedule shaped like perfbench's fault_churn: `epochs` epochs, each
// with 40 node and 400 link faults per 2,048 nodes active for that epoch
// alone, and `queries` random pairs routed at each epoch's time.
struct ChurnQuery {
  Node s = 0;
  Node t = 0;
  std::uint64_t time = 0;
};

struct ChurnSchedule {
  FaultModel faults;
  std::vector<ChurnQuery> queries;
};

ChurnSchedule churn_schedule(const HhcTopology& net, std::uint64_t epochs,
                             std::uint64_t queries, util::Xoshiro256& rng) {
  const std::uint64_t n = net.node_count();
  ChurnSchedule schedule;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::uint64_t k = 0; k < n * 40 / 2048; ++k) {
      schedule.faults.fail_node(rng.below(n), e, e + 1);
    }
    for (std::uint64_t k = 0; k < n * 400 / 2048; ++k) {
      const Node u = rng.below(n);
      const auto dim = static_cast<unsigned>(rng.below(net.degree()));
      schedule.faults.fail_link(u,
                                dim < net.m() ? net.internal_neighbor(u, dim)
                                              : net.external_neighbor(u),
                                e, e + 1);
    }
    for (std::uint64_t k = 0; k < queries; ++k) {
      schedule.queries.push_back({rng.below(n), rng.below(n), e});
    }
  }
  return schedule;
}

// The count pins' schedules. At m = 3, 8 epochs of 1,024 random pairs. At
// m = 4, 2 epochs of 768 pairs, each t twelve random hops from its s, so
// that the oracle's BFS stays small.
ChurnSchedule churn_schedule_m3(const HhcTopology& net) {
  util::Xoshiro256 rng{0xC4A};
  return churn_schedule(net, 8, 1024, rng);
}

ChurnSchedule churn_schedule_m4(const HhcTopology& net) {
  util::Xoshiro256 rng{0xC4B};
  ChurnSchedule schedule = churn_schedule(net, 2, 768, rng);
  for (ChurnQuery& q : schedule.queries) {
    q.t = q.s;
    for (int hop = 0; hop < 12; ++hop) {
      const auto nbrs = net.neighbors(q.t);
      q.t = nbrs[rng.below(nbrs.size())];
    }
  }
  return schedule;
}

struct SearchWork {
  query::DegradationLevel level = query::DegradationLevel::kDisconnected;
  bool used_fallback = false;
  std::size_t search_expansions = 0;
  std::size_t guard_expansions = 0;
  std::vector<Path> paths;
  bool operator==(const SearchWork&) const = default;
};

// Routes every query through one router from `threads` callers, caller c
// taking the queries whose index is c modulo `threads`.
std::vector<SearchWork> churn_work(const AdaptiveRouter& router,
                                   const FaultModel& faults,
                                   const std::vector<ChurnQuery>& queries,
                                   std::size_t threads) {
  std::vector<SearchWork> work(queries.size());
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < threads; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t i = c; i < queries.size(); i += threads) {
        const ChurnQuery& q = queries[i];
        query::RouteResult r = router.route(q.s, q.t, faults, q.time);
        work[i] = {r.level, r.used_fallback, r.search_expansions,
                   r.guard_expansions, std::move(r.paths)};
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  return work;
}

// FNV-1a, 64-bit, over each route's level and, per path, its node count
// and nodes, in query order, each value taken as 8 little-endian bytes.
std::uint64_t route_digest(const std::vector<SearchWork>& work) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint64_t value) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((value >> (8 * byte)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  for (const SearchWork& w : work) {
    mix(static_cast<std::uint64_t>(w.level));
    for (const Path& path : w.paths) {
      mix(path.size());
      for (const Node v : path) mix(v);
    }
  }
  return digest;
}

TEST(RouterEquivalence, SearchWorkIsPinnedOnAChurnSchedule) {
  // The A* and guard expansions each route reports are a pure function of
  // the snapshot and (s, t): the same from one caller and from four, and
  // 0 wherever no search ran. Their totals and the p99 of expansions per
  // fallback are pinned, so a change that keeps every answer but makes the
  // search do more work fails here. So is a digest of every route's level
  // and nodes, so a change that keeps every detour's length but takes
  // other nodes (a changed tie-break) fails here too.
  const HhcTopology net{3};
  const ChurnSchedule schedule = churn_schedule_m3(net);
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  const std::vector<SearchWork> one =
      churn_work(router, schedule.faults, schedule.queries, 1);
  const std::vector<SearchWork> four =
      churn_work(router, schedule.faults, schedule.queries, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i], four[i]) << "query " << i
                               << ": s=" << schedule.queries[i].s
                               << " t=" << schedule.queries[i].t;
  }

  std::size_t search = 0;
  std::size_t guard = 0;
  std::vector<std::size_t> per_fallback;
  for (const SearchWork& w : one) {
    if (!w.used_fallback) {
      ASSERT_EQ(w.search_expansions + w.guard_expansions, 0U);
      continue;
    }
    search += w.search_expansions;
    guard += w.guard_expansions;
    per_fallback.push_back(w.search_expansions + w.guard_expansions);
  }
  std::sort(per_fallback.begin(), per_fallback.end());
  ASSERT_FALSE(per_fallback.empty());
  // Nearest rank: the least count at or above 99% of the fallbacks.
  const std::size_t p99 =
      per_fallback[(per_fallback.size() * 99 + 99) / 100 - 1];
  // 16.7 expansions per fallback, searched from the more damaged
  // endpoint. Always searching from s, the search made 46,165 and 3,581
  // (19.5 per fallback) with a p99 of 86; under the max-over-one-position
  // lower bound, 79,900 and 8,050 (34.5 per fallback) with a p99 of 171;
  // popping the newest node at the least f and running its guard from the
  // start, 104,829 and 27,801 (52.0 per fallback) with a p99 of 259.
  EXPECT_EQ(per_fallback.size(), 2551U);
  EXPECT_EQ(search, 39'820U);
  EXPECT_EQ(guard, 2'886U);
  EXPECT_EQ(p99, 55U);
  // A search from t breaks ties among equally short detours otherwise:
  // 15178932977930048897 always searching from s, 11163755293888097584
  // under the lower bound (and before the expansion skipped its arrival
  // edge, which changed no answer).
  EXPECT_EQ(route_digest(one), 16398939847133262999ULL);
}

TEST(RouterEquivalence, ChurnScheduleAtM4KeepsDetoursShortest) {
  // The churn schedule's density at m = 4, the largest m searched, with
  // each t twelve random hops from its s, so that the oracle's BFS stays
  // small: every answer is held to the oracle's, a detour as short as the
  // BFS distance over usable edges. The search meets the external edge's
  // dimension 4 and node ids up to 2^20 - 1.
  const HhcTopology net{4};
  ChurnSchedule schedule = churn_schedule_m4(net);
  core::ContainerCache cache{net};
  const AdaptiveRouter router{cache};
  Tally tally;
  Case c;
  c.faults = std::move(schedule.faults);
  for (const ChurnQuery& q : schedule.queries) {
    c.s = q.s;
    c.t = q.t;
    c.time = q.time;
    expect_equivalent(net, router, c,
                      reference_route(net, c.s, c.t, c.faults, c.time), tally);
    if (HasFatalFailure()) return;
  }
  // 89 fallbacks, all delivered.
  EXPECT_GE(tally.fallbacks, 64U);

  // The work and the routes are pinned as at m = 3, so the search's
  // 16-bit rows and its external dimension 4 cannot change a tie-break or
  // a count unseen.
  const std::vector<SearchWork> work =
      churn_work(router, c.faults, schedule.queries, 1);
  std::size_t fallbacks = 0;
  std::size_t search = 0;
  std::size_t guard = 0;
  for (const SearchWork& w : work) {
    fallbacks += w.used_fallback ? 1 : 0;
    search += w.search_expansions;
    guard += w.guard_expansions;
  }
  // Always searching from s: 1,321 and 117, digest 12737760616672195058.
  EXPECT_EQ(fallbacks, 89U);
  EXPECT_EQ(search, 1'127U);
  EXPECT_EQ(guard, 104U);
  EXPECT_EQ(route_digest(work), 18361081920896536776ULL);
}

// The start rule's score, counted through the fault model instead of the
// router's usable-edge bytes: the edges usable at `time` that fall toward
// `to` within two hops of `from`, those at `from` and those at each
// neighbor such an edge reaches.
unsigned falling_reach(const HhcTopology& net, const FaultModel& faults,
                       std::uint64_t time, Node from, Node to) {
  const unsigned m = net.m();
  const auto across = [&](Node v, unsigned d) {
    return d < m ? net.internal_neighbor(v, d) : net.external_neighbor(v);
  };
  unsigned reach = 0;
  const unsigned first = detail::falling_dimensions(m, from, to);
  for (unsigned d = 0; d <= m; ++d) {
    const Node v = across(from, d);
    if (((first >> d) & 1U) == 0 || !faults.edge_usable_at(from, v, time)) {
      continue;
    }
    ++reach;
    const unsigned onward = detail::falling_dimensions(m, v, to);
    for (unsigned e = 0; e <= m; ++e) {
      if (((onward >> e) & 1U) != 0 &&
          faults.edge_usable_at(v, across(v, e), time)) {
        ++reach;
      }
    }
  }
  return reach;
}

TEST(RouterEquivalence, ReversedQueriesSearchTheSameDetour) {
  // A fully cut container sends the survivor search to whichever endpoint
  // has fewer usable edges falling toward the other within two hops, ties
  // to s. On both count pins' schedules, every query whose container is
  // cut both ways is routed t -> s too (the container served for (t, s) is
  // another orbit image, not the reverse of (s, t)'s, and often survives:
  // those are counted and skipped). The two routes must answer as the
  // oracle does: the same level and, for a detour, the oracle's length.
  // Where the two scores differ, both routes start from the same endpoint,
  // so they run the same search: one detour is the exact reverse of the
  // other, with the same A* and guard counts. Where they tie, each starts
  // from its own s. Each route's search_from_t is held to the rule, scored
  // through the fault model.
  for (const unsigned m : {3U, 4U}) {
    const HhcTopology net{m};
    ChurnSchedule schedule =
        m == 3 ? churn_schedule_m3(net) : churn_schedule_m4(net);
    core::ContainerCache cache{net};
    const AdaptiveRouter router{cache};
    Case c;
    c.faults = std::move(schedule.faults);
    std::size_t same_search = 0;
    std::size_t tied = 0;
    std::size_t served_back = 0;
    for (const ChurnQuery& q : schedule.queries) {
      c.s = q.s;
      c.t = q.t;
      c.time = q.time;
      const query::RouteResult there = router.route(q.s, q.t, c.faults, q.time);
      if (!there.used_fallback) continue;
      const query::RouteResult back = router.route(q.t, q.s, c.faults, q.time);
      if (!back.used_fallback) {
        ++served_back;
        continue;
      }
      const query::RouteResult want =
          reference_route(net, q.s, q.t, c.faults, q.time);
      ASSERT_EQ(there.level, want.level) << "m=" << m << " s=" << q.s;
      ASSERT_EQ(back.level, want.level) << "m=" << m << " s=" << q.s;
      const unsigned at_s = falling_reach(net, c.faults, q.time, q.s, q.t);
      const unsigned at_t = falling_reach(net, c.faults, q.time, q.t, q.s);
      ASSERT_EQ(there.search_from_t, at_t < at_s) << "m=" << m << " s=" << q.s;
      ASSERT_EQ(back.search_from_t, at_s < at_t) << "m=" << m << " s=" << q.s;
      if (want.level == query::DegradationLevel::kBestEffort) {
        ASSERT_EQ(there.paths.size(), 1U);
        ASSERT_EQ(back.paths.size(), 1U);
        expect_shortest_detour(net, c, there.paths[0], want.paths[0]);
        Case backward = c;
        std::swap(backward.s, backward.t);
        Path want_back = want.paths[0];
        std::reverse(want_back.begin(), want_back.end());
        expect_shortest_detour(net, backward, back.paths[0], want_back);
        if (HasFatalFailure()) return;
      }
      if (at_s == at_t) {
        ++tied;
        continue;
      }
      ++same_search;
      std::vector<Path> reversed = back.paths;
      for (Path& path : reversed) std::reverse(path.begin(), path.end());
      ASSERT_EQ(there.paths, reversed)
          << "m=" << m << " s=" << q.s << " t=" << q.t;
      ASSERT_EQ(there.search_expansions, back.search_expansions)
          << "m=" << m << " s=" << q.s << " t=" << q.t;
      ASSERT_EQ(there.guard_expansions, back.guard_expansions)
          << "m=" << m << " s=" << q.s << " t=" << q.t;
    }
    // 1,014 same searches, 287 ties and 1,250 served back at m = 3; 20, 2
    // and 67 at m = 4.
    EXPECT_GT(same_search, m == 3 ? 500U : 10U) << "m=" << m;
    EXPECT_GT(tied, m == 3 ? 100U : 0U) << "m=" << m;
    EXPECT_GT(served_back, 0U) << "m=" << m;
  }
}

TEST(RouterEquivalence, DistanceTableIsExact) {
  // The survivor search's h is the fault-free distance to t, read from a
  // table per m. It must equal core::bfs_distances for every (v, t) at
  // m <= 3 and for every v of a seeded sample of targets at m = 4, change
  // by exactly 1 across every edge at m <= 3 (what lets two stacks stand in
  // for A*'s priority queue), and reach the diameter 2^(m + 1). Every t
  // reads every cell of its m's table (v -> (S, y) is one to one), so the
  // largest h over one t is the table's maximum. The search steps by the
  // falling-dimension mask beside each cell: its bit d (d = m the external
  // edge) must say whether the dimension-d neighbor is nearer to t by BFS,
  // on the same (v, t), and no bit above m may be set.
  for (unsigned m = 1; m <= 4; ++m) {
    const HhcTopology net{m};
    const std::uint64_t n = net.node_count();
    std::vector<Node> targets;
    if (m < 4) {
      for (Node t = 0; t < n; ++t) targets.push_back(t);
    } else {
      util::Xoshiro256 rng{0xC4C};
      targets = {net.encode(0, 0), net.encode(0, 15)};
      while (targets.size() < 6) targets.push_back(rng.below(n));
    }
    std::size_t edges = 0;
    for (const Node t : targets) {
      const std::vector<std::uint32_t> dist = core::bfs_distances(net, t);
      unsigned most = 0;
      for (Node v = 0; v < n; ++v) {
        const unsigned h = detail::distance(m, v, t);
        ASSERT_EQ(h, dist[v]) << "m=" << m << " v=" << v << " t=" << t;
        most = std::max(most, h);
        const unsigned falling = detail::falling_dimensions(m, v, t);
        ASSERT_EQ(falling >> (m + 1), 0U) << "m=" << m << " v=" << v;
        for (unsigned d = 0; d <= m; ++d) {
          const Node w =
              d < m ? net.internal_neighbor(v, d) : net.external_neighbor(v);
          ASSERT_EQ(((falling >> d) & 1U) != 0, dist[w] < dist[v])
              << "m=" << m << " v=" << v << " t=" << t << " dim=" << d;
        }
        if (m == 4) continue;
        for (const Node w : net.neighbors(v)) {
          const unsigned hw = detail::distance(m, w, t);
          ASSERT_EQ(h > hw ? h - hw : hw - h, 1U)
              << "m=" << m << " edge " << v << "-" << w << " t=" << t;
          ++edges;
        }
      }
      ASSERT_EQ(most, 2U << m) << "m=" << m << " t=" << t;
    }
    if (m < 4) {
      EXPECT_EQ(edges, n * n * net.degree()) << "m=" << m;
    }
  }
}

}  // namespace
}  // namespace hhc::fault
