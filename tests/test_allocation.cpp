// Allocation-count regression tests for the zero-allocation hot paths.
//
// This binary overrides the global allocation functions with counting
// wrappers (malloc-backed, so behavior is unchanged) and asserts a ZERO
// delta across the steady-state regions the arena rework promises are
// allocation-free:
//
//   * node_disjoint_paths(net, s, t, options, scratch) once the scratch's
//     arena/workspaces/buffers have grown to the working set — including a
//     construction that fills fan-table entries it has never seen (the
//     table is sized once per m, on the first construction at that m);
//   * ContainerCache::lookup on a hit: a borrowed handle from the store, at
//     every m;
//   * ContainerCache::materialize at m <= 4 once the orbit records are
//     filled (allocates only the returned paths);
//   * PathService::answer_view on a hit (handle + telemetry only), and
//     PathService::answer's orbit decode (its result only), also on a
//     fresh thread after one warm-up call;
//   * AdaptiveRouter's container scan once the thread's flat buffer has
//     grown (a scan-served route allocates only its returned path and the
//     result's paths vector);
//   * AdaptiveRouter's survivor-search fallback once the thread's search
//     scratch has grown: a disconnected search of two 1024-node halves
//     allocates nothing, an isolated endpoint or a small component around t
//     ends the search before it needs more room than one detour grew, and
//     a detour allocates only the returned path and the result's paths
//     vector — also at a new time inside the fault interval the snapshot
//     covers, and after an interval change that re-projects the usable-edge
//     bytes;
//   * re-resolving the router's per-thread fault snapshot (a new model or
//     a new interval) once it has grown to the largest active set.
//
// It also counts frees, to show that a store publication which loses its
// race frees the loser's entry.
//
// The measured regions contain no gtest assertions (the assertion machinery
// allocates); deltas are captured first and checked after. If one of these
// tests starts failing, some step of the hot path regressed to heap traffic
// — find it with e.g. a breakpoint on the counting operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/routing.hpp"
#include "core/scratch.hpp"
#include "fault/adaptive_router.hpp"
#include "obs/metrics.hpp"
#include "query/path_service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_deallocations{0};

void counted_free(void* p) noexcept {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Counting global allocator. Covers the throwing, nothrow, and sized/array
// forms so no allocation path in the process escapes the counter.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// gcc 12 inlines these into std::allocator and then flags free() on memory
// from operator new (-Wmismatched-new-delete). The replaced operator new
// above allocates with malloc, so malloc and free pair by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
#pragma GCC diagnostic pop
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace hhc::core {
namespace {

std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::size_t deallocation_count() {
  return g_deallocations.load(std::memory_order_relaxed);
}

TEST(AllocationFree, ScratchConstructionSteadyState) {
  const HhcTopology net{3};
  const auto pairs = sample_pairs(net, 200, 0xA110C);
  auto& scratch = tls_construction_scratch();

  // Warm-up: grows the arena chunks, fan workspaces, flow network, and
  // route buffers to this working set's high-water mark.
  for (int round = 0; round < 2; ++round) {
    for (const auto& [s, t] : pairs) {
      const auto set = node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(set.paths.size(), net.m() + 1);
    }
  }

  const std::size_t before = allocation_count();
  std::size_t paths_built = 0;
  for (const auto& [s, t] : pairs) {
    const auto set = node_disjoint_paths(net, s, t, {}, scratch);
    paths_built += set.paths.size();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "steady-state construction performed " << delta
                       << " heap allocations across " << pairs.size()
                       << " queries";
  EXPECT_EQ(paths_built, pairs.size() * (net.m() + 1));
}

TEST(AllocationFree, ScratchConstructionSteadyStateAllOptionSets) {
  const HhcTopology net{3};
  const auto pairs = sample_pairs(net, 100, 0xA110D);
  auto& scratch = tls_construction_scratch();
  const ConstructionOptions option_sets[] = {
      {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical},
      {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical},
      {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced},
  };

  for (int round = 0; round < 2; ++round) {
    for (const auto& options : option_sets) {
      for (const auto& [s, t] : pairs) {
        const auto set = node_disjoint_paths(net, s, t, options, scratch);
        ASSERT_EQ(set.paths.size(), net.m() + 1);
      }
    }
  }

  const std::size_t before = allocation_count();
  for (const auto& options : option_sets) {
    for (const auto& [s, t] : pairs) {
      const auto set = node_disjoint_paths(net, s, t, options, scratch);
      volatile std::size_t sink = set.paths.size();
      (void)sink;
    }
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

TEST(AllocationFree, FanTableFillIsAllocationFree) {
  const HhcTopology net{4};
  ConstructionScratch scratch;
  obs::Counter& fills =
      obs::MetricRegistry::global().counter("construct.fan_memo_fills");

  // Warm-up sizes the m = 4 fan table and grows the workspaces; it leaves
  // most of the 21,840 fan keys unseen.
  const auto warm = sample_pairs(net, 200, 0xA1111);
  for (int round = 0; round < 2; ++round) {
    for (const auto& [s, t] : warm) {
      const auto set = node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(set.paths.size(), net.m() + 1);
    }
  }

  const auto fresh = sample_pairs(net, 50, 0xA1112);
  const std::uint64_t fills_before = fills.get();
  const std::size_t before = allocation_count();
  for (const auto& [s, t] : fresh) {
    const auto set = node_disjoint_paths(net, s, t, {}, scratch);
    volatile std::size_t sink = set.paths.size();
    (void)sink;
  }
  const std::size_t delta = allocation_count() - before;
  const std::uint64_t filled = fills.get() - fills_before;

  EXPECT_GT(filled, 0u) << "no construction met an unseen fan key";
  EXPECT_EQ(delta, 0u) << "constructions filling " << filled
                       << " fan-table entries performed " << delta
                       << " heap allocations";
}

TEST(AllocationFree, ArenaHeapAllocationsStabilize) {
  const HhcTopology net{4};
  const auto pairs = sample_pairs(net, 100, 0xA110E);
  auto& scratch = tls_construction_scratch();
  for (const auto& [s, t] : pairs) {
    (void)node_disjoint_paths(net, s, t, {}, scratch);
  }
  // The arena's own bookkeeping agrees with the global counter: after the
  // first full pass no further chunk is ever requested.
  const std::size_t chunks = scratch.arena.heap_allocations();
  for (int round = 0; round < 3; ++round) {
    for (const auto& [s, t] : pairs) {
      (void)node_disjoint_paths(net, s, t, {}, scratch);
    }
  }
  EXPECT_EQ(scratch.arena.heap_allocations(), chunks);
}

TEST(AllocationFree, OrbitMaterializeAllocatesOnlyItsResult) {
  // A steady-state ContainerCache::materialize at m <= 4 decodes the
  // orbit record straight into the result: the paths vector and one
  // vector per path, m + 2 allocations, nothing else.
  const HhcTopology net{4};
  ContainerCache cache{net};
  const auto pairs = sample_pairs(net, 64, 0xA1120);
  for (const auto& [s, t] : pairs) (void)cache.materialize(s, t, {});
  // The first hit registers this thread's striped hit-counter cell.
  (void)cache.materialize(pairs[0].s, pairs[0].t, {});

  const std::size_t before = allocation_count();
  std::size_t total_paths = 0;
  for (const auto& [s, t] : pairs) {
    const DisjointPathSet set = cache.materialize(s, t, {});
    total_paths += set.paths.size();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(total_paths, pairs.size() * (net.m() + 1));
  EXPECT_EQ(delta, pairs.size() * (net.m() + 2))
      << "materialize allocated beyond its result";
}

TEST(AllocationFree, CacheHitLookup) {
  // An m = 5 hit borrows the store's entry like any other: no allocation.
  const HhcTopology net{5};
  ContainerCache cache{net};
  const auto pairs = sample_pairs(net, 64, 0xA110F);
  for (const auto& [s, t] : pairs) (void)cache.lookup(s, t);  // populate
  // This thread's first HIT lazily registers its striped hit-counter cell
  // (one allocation per thread, ever); warm it so the loop below measures
  // the steady-state hit path.
  (void)cache.lookup(pairs[0].s, pairs[0].t);

  const std::size_t before = allocation_count();
  std::size_t total_paths = 0;
  for (const auto& [s, t] : pairs) {
    const ContainerHandle handle = cache.lookup(s, t);
    total_paths += handle.path_count();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "cache hits performed " << delta << " allocations";
  EXPECT_EQ(total_paths, pairs.size() * (net.m() + 1));
  EXPECT_EQ(cache.hits(), pairs.size() + 1);
}

TEST(AllocationFree, TierHitIsBorrowed) {
  // At every m a hit borrows the store's entry: no allocation and no
  // owner, so no refcount either.
  for (const unsigned m : {4U, 5U}) {
    const HhcTopology net{m};
    ContainerCache cache{net};
    const auto pairs = sample_pairs(net, 64, 0xA1150);
    for (const auto& [s, t] : pairs) (void)cache.lookup(s, t);  // populate
    (void)cache.lookup(pairs[0].s, pairs[0].t);  // registers the hit cell

    const std::size_t before = allocation_count();
    std::size_t borrowed = 0;
    for (const auto& [s, t] : pairs) {
      const ContainerHandle handle = cache.lookup(s, t);
      if (handle.borrowed()) ++borrowed;
    }
    const std::size_t delta = allocation_count() - before;

    EXPECT_EQ(delta, 0u) << "m=" << m << ": hits performed " << delta
                         << " allocations";
    EXPECT_EQ(borrowed, pairs.size()) << "m=" << m;
  }
}

TEST(AllocationFree, TierPastCapacityHandsOutOwningCopies) {
  // A capped cache's store holds shards x max_entries_per_shard classes;
  // later classes get an owning copy that outlives clear() and the cache
  // itself.
  for (const unsigned m : {3U, 5U}) {
    const HhcTopology net{m};
    const auto pairs = sample_pairs(net, 8, 0xA1160);
    std::vector<ContainerHandle> handles;
    std::vector<DisjointPathSet> expected;
    {
      ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 2}};
      for (const auto& [s, t] : pairs) handles.push_back(cache.lookup(s, t));
      EXPECT_EQ(cache.size(), 4u) << "m=" << m;
      cache.clear();
      for (std::size_t k = 0; k < handles.size(); ++k) {
        EXPECT_EQ(handles[k].borrowed(), k < 4) << "m=" << m << " k=" << k;
        expected.push_back(cache.materialize(pairs[k].s, pairs[k].t, {}));
        EXPECT_EQ(handles[k].materialize().paths, expected[k].paths);
      }
    }
    for (std::size_t k = 4; k < handles.size(); ++k) {
      ASSERT_TRUE(handles[k].valid());
      EXPECT_EQ(handles[k].materialize().paths, expected[k].paths)
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(ClassStore, LostPublicationServesTheWinner) {
  // Two fills of one class, published one after the other, stand for two
  // threads that both missed: the second publication loses. It must serve
  // the first entry, free its own copy (the entry and its two vectors),
  // and return its reservation.
  const auto entry = [] {
    auto made = std::make_unique<ClassStore::Entry>();
    made->key = 42;
    made->flat.nodes = {1, 2, 3};
    made->flat.offsets = {0, 3};
    return made;
  };
  ClassStore store{4};
  ASSERT_TRUE(store.reserve());
  ASSERT_TRUE(store.reserve());
  auto first = entry();
  auto second = entry();
  const FlatContainer* winner = store.publish(std::move(first));

  const std::size_t frees_before = deallocation_count();
  const std::size_t allocations_before = allocation_count();
  const FlatContainer* served = store.publish(std::move(second));
  const std::size_t freed = deallocation_count() - frees_before;
  const std::size_t allocated = allocation_count() - allocations_before;

  EXPECT_EQ(served, winner);
  EXPECT_EQ(store.find(42), winner);
  EXPECT_EQ(freed, 3u);
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(AllocationFree, AnswerViewOnHit) {
  const HhcTopology net{3};
  query::PathService service{net};
  const auto pairs = sample_pairs(net, 64, 0xA1110);
  for (const auto& [s, t] : pairs) {
    (void)service.answer_view({.s = s, .t = t});  // populate
  }

  const std::size_t before = allocation_count();
  std::size_t total_paths = 0;
  for (const auto& [s, t] : pairs) {
    const query::RouteView view = service.answer_view({.s = s, .t = t});
    total_paths += view.container.path_count();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "answer_view hits performed " << delta
                       << " allocations";
  EXPECT_EQ(total_paths, pairs.size() * (net.m() + 1));
}

TEST(AllocationFree, FreshThreadAfterOneWarmUpCall) {
  // A thread's first answer registers its telemetry stripes (the service's
  // tally stripe, the gate's completion cell, the cache's hit counter);
  // after that one warm-up call, an answer_view hit allocates nothing and
  // an answer() orbit decode allocates only its result (the paths vector
  // and one vector per path).
  const HhcTopology net{4};
  query::PathService service{net};
  const auto pairs = sample_pairs(net, 64, 0xA1140);
  for (const auto& [s, t] : pairs) {
    (void)service.answer_view({.s = s, .t = t});  // populate
    (void)service.answer({.s = s, .t = t});       // fill the orbit records
  }

  std::size_t view_delta = 0;
  std::size_t answer_delta = 0;
  std::size_t total_paths = 0;
  std::thread caller{[&] {
    (void)service.answer_view({.s = pairs[0].s, .t = pairs[0].t});
    (void)service.answer({.s = pairs[0].s, .t = pairs[0].t});

    std::size_t before = allocation_count();
    for (const auto& [s, t] : pairs) {
      const query::RouteView view = service.answer_view({.s = s, .t = t});
      total_paths += view.container.path_count();
    }
    view_delta = allocation_count() - before;

    before = allocation_count();
    for (const auto& [s, t] : pairs) {
      const query::RouteResult result = service.answer({.s = s, .t = t});
      total_paths += result.paths.size();
    }
    answer_delta = allocation_count() - before;
  }};
  caller.join();

  EXPECT_EQ(view_delta, 0u) << "answer_view hits performed " << view_delta
                            << " allocations";
  EXPECT_EQ(answer_delta, pairs.size() * (net.m() + 2))
      << "answer() allocated beyond its result";
  EXPECT_EQ(total_paths, 2 * pairs.size() * (net.m() + 1));
}

// A container at m = 3 whose m+1 paths are each cut at one interior node,
// so every fault-aware route takes the survivor-search fallback.
FaultModel block_container(const HhcTopology& net, Node s, Node t) {
  FaultModel faults;
  for (const Path& path : node_disjoint_paths(net, s, t).paths) {
    faults.fail_node(path[path.size() / 2]);
  }
  return faults;
}

TEST(AllocationFree, DisconnectedSurvivorSweep) {
  const HhcTopology net{3};
  const fault::AdaptiveRouter router{net};
  const Node s = net.encode(5, 2);
  const Node t = net.encode(200, 5);
  // Every external link that flips cluster-address bit 0 is down, which
  // cuts the network into two halves of 1024 nodes, with s (X = 5) and t
  // (X = 200) on opposite sides. The scan finds every path blocked, and
  // both frontiers sweep their whole half before reporting kDisconnected.
  FaultModel faults;
  for (Node x = 0; x < 256; x += 2) {
    const Node u = net.encode(x, 0);
    faults.fail_link(u, net.external_neighbor(u));
  }
  const query::PairQuery q{.s = s, .t = t, .faults = &faults};

  (void)router.route(q);  // warm-up sweep grows this thread's scratch
  const std::size_t before = allocation_count();
  const query::RouteResult r = router.route(q);
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "a full disconnected sweep performed " << delta
                       << " heap allocations";
  EXPECT_EQ(r.level, query::DegradationLevel::kDisconnected);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(r.container_paths_blocked, net.degree());
}

// Fastest of five runs of `route`, in microseconds.
template <class Route>
double min_of_five_micros(Route&& route) {
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    const util::Stopwatch watch;
    (void)route();
    const double micros = watch.micros();
    if (run == 0 || micros < best) best = micros;
  }
  return best;
}

// Microseconds of one m = 4 half-cut disconnected sweep, timed warm after
// an untimed one: every external link that flips cluster-address bit 0 is
// down, so s and t lie in halves of 2^19 nodes and the search sweeps s's
// half before it reports kDisconnected. An early stop takes a small
// fraction of this; a search that sweeps s's component takes more.
double half_cut_sweep_micros(const HhcTopology& net,
                             const fault::AdaptiveRouter& router) {
  FaultModel faults;
  for (Node x = 0; x < net.cluster_count(); x += 2) {
    const Node u = net.encode(x, 0);
    faults.fail_link(u, net.external_neighbor(u));
  }
  const query::PairQuery q{.s = net.encode(5, 2),
                           .t = net.encode(40'000, 5),
                           .faults = &faults};
  EXPECT_EQ(router.route(q).level, query::DegradationLevel::kDisconnected);
  const util::Stopwatch watch;
  (void)router.route(q);
  return watch.micros();
}

TEST(AllocationFree, IsolatedEndpointStopsEarly) {
  // At m = 4 an isolated t is found after t's own expansion, however large
  // s's component is. During [0, 10) one interior node of every container
  // path is down, so a route at time 0 is a best-effort detour; during
  // [10, 20) t's neighbors are down instead. On a fresh thread, after the
  // detour has grown the scratch (and warmed the construction for this
  // pair), the isolated-t query at time 10 needs no more room and
  // allocates nothing. The scratch is node-indexed, so a search that swept
  // s's component would allocate nothing either: the early stop is pinned
  // by time instead, against a sweep of half the network.
  const HhcTopology net{4};
  const fault::AdaptiveRouter router{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(40'000, 9);
  FaultModel faults;
  for (const Path& path : node_disjoint_paths(net, s, t).paths) {
    faults.fail_node(path[path.size() / 2], 0, 10);
  }
  for (const Node v : net.neighbors(t)) faults.fail_node(v, 10, 20);

  query::RouteResult detoured;
  query::RouteResult isolated;
  std::size_t delta = 0;
  double early_us = 0.0;
  double sweep_us = 0.0;
  std::thread caller{[&] {
    detoured = router.route(s, t, faults, 0);
    const std::size_t before = allocation_count();
    isolated = router.route(s, t, faults, 10);
    delta = allocation_count() - before;
    early_us =
        min_of_five_micros([&] { return router.route(s, t, faults, 10); });
    sweep_us = half_cut_sweep_micros(net, router);
  }};
  caller.join();

  EXPECT_EQ(detoured.level, query::DegradationLevel::kBestEffort);
  EXPECT_EQ(delta, 0u) << "an isolated-t query performed " << delta
                       << " heap allocations";
  EXPECT_LT(early_us, sweep_us / 10)
      << "an isolated-t query took " << early_us << " us; a half-cut sweep "
      << "takes " << sweep_us << " us";
  EXPECT_EQ(isolated.level, query::DegradationLevel::kDisconnected);
  EXPECT_TRUE(isolated.used_fallback);
  EXPECT_EQ(isolated.container_paths_blocked, net.degree());
}

TEST(AllocationFree, SmallComponentAroundTStopsEarly) {
  // As above, but t is not alone: during [10, 20) t and its m internal
  // neighbors keep the edges among themselves and lose every other one,
  // so t's component has m + 1 nodes. The guard BFS from t exhausts it,
  // and the route answers kDisconnected without allocating on a thread
  // whose scratch the detour at time 0 grew, in a small fraction of a
  // half-cut sweep's time.
  const HhcTopology net{4};
  const fault::AdaptiveRouter router{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(40'000, 9);
  FaultModel faults;
  for (const Path& path : node_disjoint_paths(net, s, t).paths) {
    faults.fail_node(path[path.size() / 2], 0, 10);
  }
  // The cut below is 17 link facts; 12 gateway links of a far cluster
  // bring time 0's snapshot to as many, so the measured re-resolve reuses
  // its room.
  for (Node y = 0; y < 12; ++y) {
    const Node far = net.encode(1000, y);
    faults.fail_link(far, net.external_neighbor(far), 0, 10);
  }
  faults.fail_link(t, net.external_neighbor(t), 10, 20);
  for (unsigned i = 0; i < net.m(); ++i) {
    const Node w = net.internal_neighbor(t, i);
    faults.fail_link(w, net.external_neighbor(w), 10, 20);
    for (unsigned j = 0; j < net.m(); ++j) {
      if (j != i) faults.fail_link(w, net.internal_neighbor(w, j), 10, 20);
    }
  }

  query::RouteResult detoured;
  query::RouteResult cut_off;
  std::size_t delta = 0;
  double early_us = 0.0;
  double sweep_us = 0.0;
  std::thread caller{[&] {
    detoured = router.route(s, t, faults, 0);
    const std::size_t before = allocation_count();
    cut_off = router.route(s, t, faults, 10);
    delta = allocation_count() - before;
    early_us =
        min_of_five_micros([&] { return router.route(s, t, faults, 10); });
    sweep_us = half_cut_sweep_micros(net, router);
  }};
  caller.join();

  EXPECT_EQ(detoured.level, query::DegradationLevel::kBestEffort);
  EXPECT_EQ(delta, 0u) << "a cut-off-component query performed " << delta
                       << " heap allocations";
  EXPECT_LT(early_us, sweep_us / 10)
      << "a cut-off-component query took " << early_us << " us; a half-cut "
      << "sweep takes " << sweep_us << " us";
  EXPECT_EQ(cut_off.level, query::DegradationLevel::kDisconnected);
  EXPECT_EQ(cut_off.outcome, query::RouteOutcome::kOk);
  EXPECT_TRUE(cut_off.used_fallback);
  EXPECT_EQ(cut_off.container_paths_blocked, net.degree());
}

TEST(AllocationFree, BestEffortDetourAllocatesOnlyItsResult) {
  const HhcTopology net{3};
  const fault::AdaptiveRouter router{net};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(177, 6);
  const FaultModel faults = block_container(net, s, t);
  const query::PairQuery q{.s = s, .t = t, .faults = &faults};

  (void)router.route(q);
  const std::size_t before = allocation_count();
  const query::RouteResult r = router.route(q);
  const std::size_t delta = allocation_count() - before;

  // One for the detour itself, one for the result's paths vector.
  EXPECT_EQ(delta, 2u) << "a best-effort route performed " << delta
                       << " heap allocations";
  EXPECT_EQ(r.level, query::DegradationLevel::kBestEffort);
  EXPECT_TRUE(r.used_fallback);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_TRUE(is_valid_path(net, r.primary(), s, t));
}

TEST(AllocationFree, SteadyStateInsideOneFaultInterval) {
  // Every fault holds during [0, 100): the warm-up routes at time 10
  // resolve this thread's snapshot, and the measured routes at other times
  // inside the interval reuse it with the counts above.
  const HhcTopology net{3};
  const fault::AdaptiveRouter router{net};
  const Node s = net.encode(5, 2);
  const Node t = net.encode(200, 5);
  FaultModel isolated;
  for (const Node v : net.neighbors(t)) isolated.fail_node(v, 0, 100);
  FaultModel blocked;
  const Node ds = net.encode(0, 0);
  const Node dt = net.encode(177, 6);
  for (const Path& path : node_disjoint_paths(net, ds, dt).paths) {
    blocked.fail_node(path[path.size() / 2], 0, 100);
  }

  (void)router.route(s, t, isolated, 10);
  std::size_t before = allocation_count();
  const query::RouteResult swept = router.route(s, t, isolated, 57);
  const std::size_t sweep_delta = allocation_count() - before;

  (void)router.route(ds, dt, blocked, 10);
  before = allocation_count();
  const query::RouteResult detoured = router.route(ds, dt, blocked, 99);
  const std::size_t detour_delta = allocation_count() - before;

  EXPECT_EQ(sweep_delta, 0u);
  EXPECT_EQ(swept.level, query::DegradationLevel::kDisconnected);
  EXPECT_TRUE(swept.used_fallback);
  EXPECT_EQ(detour_delta, 2u);
  EXPECT_EQ(detoured.level, query::DegradationLevel::kBestEffort);
  ASSERT_EQ(detoured.paths.size(), 1u);
  EXPECT_TRUE(is_valid_path(net, detoured.primary(), ds, dt));
}

TEST(AllocationFree, ScanServedRouteAllocatesOnlyItsPath) {
  // Three node faults at m = 3 never cut a whole container, so every route
  // below is served by the scan. With a shared cache the scan checks the
  // orbit record in place against the thread's usable-edge bytes; without
  // one it flattens the construction into the thread's flat buffer. Once
  // the scratch has grown, the records are filled and the snapshot is
  // resolved, a route allocates its returned path and the result's paths
  // vector, nothing else.
  const HhcTopology net{3};
  ContainerCache cache{net};
  const fault::AdaptiveRouter direct{net};
  const fault::AdaptiveRouter cached{net, &cache};
  FaultModel faults;
  for (const Node v : {Node{17}, Node{700}, Node{1500}}) faults.fail_node(v);
  std::vector<std::pair<Node, Node>> pairs;
  for (const auto& [s, t] : sample_pairs(net, 80, 0xA1150)) {
    if (!faults.node_faulty_at(s) && !faults.node_faulty_at(t)) {
      pairs.emplace_back(s, t);
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [s, t] : pairs) {
      (void)direct.route(s, t, faults);
      (void)cached.route(s, t, faults);
    }
  }

  std::size_t guaranteed = 0;
  const std::size_t before = allocation_count();
  for (const auto& [s, t] : pairs) {
    for (const fault::AdaptiveRouter* router : {&direct, &cached}) {
      const query::RouteResult r = router->route(s, t, faults);
      if (r.level == query::DegradationLevel::kGuaranteed) ++guaranteed;
    }
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(guaranteed, 2 * pairs.size());
  EXPECT_EQ(delta, 2 * 2 * pairs.size())
      << "scan-served routes allocated beyond their results";
}

TEST(AllocationFree, ReProjectionAllocatesOnlyThePath) {
  // During [0, 10) one interior node of every container path of (s0, t0)
  // is down, during [10, 20) one of every path of (s1, t1); routes
  // alternate between the two, so each one re-resolves the snapshot and
  // its sweep re-projects the usable-edge bytes. Once the warm-up has
  // routed both, a re-projecting detour allocates its path and the
  // result's paths vector, nothing else.
  const HhcTopology net{3};
  const fault::AdaptiveRouter router{net};
  const Node s0 = net.encode(0, 0);
  const Node t0 = net.encode(177, 6);
  const Node s1 = net.encode(5, 2);
  const Node t1 = net.encode(200, 5);
  FaultModel faults;
  for (const Path& path : node_disjoint_paths(net, s0, t0).paths) {
    faults.fail_node(path[path.size() / 2], 0, 10);
  }
  for (const Path& path : node_disjoint_paths(net, s1, t1).paths) {
    faults.fail_node(path[path.size() / 2], 10, 20);
  }
  (void)router.route(s0, t0, faults, 0);
  (void)router.route(s1, t1, faults, 10);

  std::size_t best_effort = 0;
  const std::size_t before = allocation_count();
  for (int round = 0; round < 4; ++round) {
    for (const auto& [s, t, time] :
         {std::tuple{s0, t0, 3}, std::tuple{s1, t1, 13}}) {
      const query::RouteResult r =
          router.route(s, t, faults, static_cast<std::uint64_t>(time));
      if (r.level == query::DegradationLevel::kBestEffort) ++best_effort;
    }
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(best_effort, 8u);
  EXPECT_EQ(delta, 2u * 8u)
      << "re-projecting routes allocated beyond their results";
}

TEST(AllocationFree, ReResolveIntoGrownSnapshot) {
  // s is down during [0, 10) and [20, 30) in two models of different
  // sizes, so a query from s returns right after the endpoint check and
  // the route's only work is the snapshot. Each measured route changes
  // the model or the interval and so re-resolves; once the warm-up has
  // grown the snapshot to the larger model, none of them allocates.
  const HhcTopology net{3};
  const fault::AdaptiveRouter router{net};
  const Node s = net.encode(3, 1);
  const Node t = net.encode(90, 4);
  FaultModel small;
  FaultModel large;
  for (FaultModel* model : {&small, &large}) {
    model->fail_node(s, 0, 10);
    model->fail_node(s, 20, 30);
  }
  util::Xoshiro256 rng{0xA1130};
  for (int k = 0; k < 400; ++k) {
    const Node u = rng.below(net.node_count());
    if (u == s) continue;
    large.fail_node(u, rng.below(30), 40);
    large.fail_link(u, net.external_neighbor(u), rng.below(30), 40);
  }
  const std::uint64_t times[] = {5, 25};

  for (const FaultModel* model : {&large, &small}) {
    for (const std::uint64_t time : times) {
      (void)router.route(s, t, *model, time);
    }
  }
  std::vector<query::RouteResult> results;
  results.reserve(8);
  const std::size_t before = allocation_count();
  for (int round = 0; round < 2; ++round) {
    for (const FaultModel* model : {&small, &large}) {
      for (const std::uint64_t time : times) {
        results.push_back(router.route(s, t, *model, time));
      }
    }
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "re-resolving routes performed " << delta
                       << " heap allocations";
  for (const query::RouteResult& r : results) {
    EXPECT_EQ(r.level, query::DegradationLevel::kDisconnected);
    EXPECT_FALSE(r.used_fallback);
    EXPECT_TRUE(r.paths.empty());
  }
}

}  // namespace
}  // namespace hhc::core
