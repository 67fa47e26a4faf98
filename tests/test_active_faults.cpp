// core::ActiveFaults against the FaultModel it is resolved from.
//
// A snapshot, and the model's point queries that read one, must answer
// exactly what a brute-force pass over the registered windows answers at
// the resolve time, for every node and every link, and keep answering it
// over the whole interval it claims to cover, and no longer. The pass reads
// the test's own list of the windows it registered, never the model. The
// version rules must make a stale snapshot impossible to serve: copies
// share a stamp, every mutation and every move re-stamps, and a model built
// where another one lived gets a stamp of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

constexpr std::uint64_t kEpochs = 8;

// One registered window: a node as (a, a), a link by its normalized pair.
struct Window {
  Node a;
  Node b;
  std::uint64_t fail;
  std::uint64_t repair;
};

// A model and the test's own list of the windows registered on it.
struct Schedule {
  FaultModel model;
  std::vector<Window> windows;

  void fail_node(Node v, std::uint64_t fail = 0,
                 std::uint64_t repair = kNeverRepaired) {
    model.fail_node(v, fail, repair);
    windows.push_back({v, v, fail, repair});
  }
  void fail_link(Node u, Node v, std::uint64_t fail = 0,
                 std::uint64_t repair = kNeverRepaired) {
    model.fail_link(u, v, fail, repair);
    windows.push_back({std::min(u, v), std::max(u, v), fail, repair});
  }
};

// What a pass over every window says at one time: the facts some window
// holds active, each once, and the window boundaries around the time.
struct Expected {
  std::set<std::pair<Node, Node>> want;
  std::uint64_t from = 0;
  std::uint64_t until = kNeverRepaired;

  [[nodiscard]] bool node_faulty(Node v) const {
    return want.contains({v, v});
  }
  [[nodiscard]] bool link_faulty(Node u, Node v) const {
    return u != v && want.contains({std::min(u, v), std::max(u, v)});
  }
};

Expected brute_force(const std::vector<Window>& windows, std::uint64_t time) {
  Expected expected;
  for (const Window& w : windows) {
    if (w.fail <= time && time < w.repair) expected.want.emplace(w.a, w.b);
    for (const std::uint64_t boundary : {w.fail, w.repair}) {
      if (boundary <= time) {
        expected.from = std::max(expected.from, boundary);
      } else {
        expected.until = std::min(expected.until, boundary);
      }
    }
  }
  return expected;
}

// fault_churn's shape at cluster dimension m: per epoch e, about 2% of the
// nodes and 10% of the links fail during [e, e+1). A few faults sit on
// non-edges (the model does not check topology), a few span several epochs,
// and a few are permanent, so every kind of key and window is present.
Schedule churn_schedule(const HhcTopology& net, std::uint64_t seed) {
  Schedule schedule;
  util::Xoshiro256 rng{seed};
  const std::uint64_t n = net.node_count();
  const std::uint64_t node_faults = std::max<std::uint64_t>(1, n / 50);
  const std::uint64_t link_faults =
      std::max<std::uint64_t>(1, n * net.degree() / 20);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    for (std::uint64_t k = 0; k < node_faults; ++k) {
      schedule.fail_node(rng.below(n), e, e + 1);
    }
    for (std::uint64_t k = 0; k < link_faults; ++k) {
      const Node u = rng.below(n);
      const auto dim = static_cast<unsigned>(rng.below(net.degree()));
      const Node v = dim < net.m() ? net.internal_neighbor(u, dim)
                                   : net.external_neighbor(u);
      schedule.fail_link(u, v, e, e + 1);
    }
    const Node u = rng.below(n);
    Node v = rng.below(n);
    if (v == u) v = (u + 1) % n;
    schedule.fail_link(u, v, e, e + 1 + rng.below(3));  // maybe a non-edge
  }
  schedule.fail_node(rng.below(n));
  schedule.fail_link(0, n - 1, 3);  // permanent from time 3
  return schedule;
}

// Non-edges to probe as links, and the pair (0, N - 1) that churn_schedule
// fails permanently.
std::vector<std::pair<Node, Node>> sample_non_edges(const HhcTopology& net,
                                                    std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  std::vector<std::pair<Node, Node>> non_edges;
  while (non_edges.size() < 500) {
    const Node u = rng.below(net.node_count());
    const Node v = rng.below(net.node_count());
    if (u != v && !net.is_edge(u, v)) non_edges.emplace_back(u, v);
  }
  non_edges.emplace_back(0, net.node_count() - 1);
  return non_edges;
}

// The nodes, links and listed non-edges of `net` on which `node_faulty` and
// `link_faulty` (a snapshot's checks or the model's point queries) disagree
// with `expected`, counted.
template <typename NodeFaulty, typename LinkFaulty>
std::size_t mismatches(const HhcTopology& net,
                       const std::vector<std::pair<Node, Node>>& non_edges,
                       const Expected& expected, NodeFaulty node_faulty,
                       LinkFaulty link_faulty) {
  std::size_t n = 0;
  for (Node u = 0; u < net.node_count(); ++u) {
    if (node_faulty(u) != expected.node_faulty(u)) ++n;
    for (const Node v : net.neighbors(u)) {
      if (link_faulty(u, v) != expected.link_faulty(u, v)) ++n;
    }
  }
  for (const auto& [u, v] : non_edges) {
    if (link_faulty(u, v) != expected.link_faulty(u, v) ||
        link_faulty(v, u) != expected.link_faulty(u, v)) {
      ++n;
    }
  }
  return n;
}

// Every resolve time worth checking: each window boundary -1, +0 and +1.
std::vector<std::uint64_t> boundary_times() {
  std::set<std::uint64_t> times;
  for (std::uint64_t b = 0; b <= kEpochs + 3; ++b) {
    if (b > 0) times.insert(b - 1);
    times.insert(b);
    times.insert(b + 1);
  }
  return {times.begin(), times.end()};
}

TEST(ActiveFaults, MatchesTheModelOnEveryNodeAndEdge) {
  for (unsigned m = 1; m <= 3; ++m) {
    const HhcTopology net{m};
    const Schedule schedule = churn_schedule(net, 0xAF00 + m);
    const FaultModel& model = schedule.model;
    const auto non_edges = sample_non_edges(net, 0xAF10 + m);

    ActiveFaults snapshot;
    for (const std::uint64_t time : boundary_times()) {
      const Expected expected = brute_force(schedule.windows, time);
      model.resolve(time, snapshot);
      ASSERT_TRUE(snapshot.covers(model.version(), time)) << "time " << time;
      EXPECT_EQ(snapshot.size(), expected.want.size())
          << "m=" << m << " time=" << time;
      EXPECT_EQ(model.fault_count(time), expected.want.size())
          << "m=" << m << " time=" << time;
      EXPECT_EQ(mismatches(
                    net, non_edges, expected,
                    [&](Node v) { return snapshot.node_faulty(v); },
                    [&](Node u, Node v) { return snapshot.link_faulty(u, v); }),
                0u)
          << "snapshot, m=" << m << " time=" << time;
      EXPECT_EQ(mismatches(
                    net, non_edges, expected,
                    [&](Node v) { return model.node_faulty_at(v, time); },
                    [&](Node u, Node v) {
                      return model.link_faulty_at(u, v, time);
                    }),
                0u)
          << "point queries, m=" << m << " time=" << time;
    }
  }
}

TEST(ActiveFaults, DenseModelStaysExact) {
  // A third of the nodes and a fifth of the gateway links down: the
  // filter passes many healthy elements on to the exact set, which must
  // still turn every one of them away.
  const HhcTopology net{3};
  Schedule schedule;
  for (Node v = 0; v < net.node_count(); v += 3) schedule.fail_node(v);
  for (Node v = 1; v < net.node_count(); v += 5) {
    schedule.fail_link(v, net.external_neighbor(v));
  }
  const FaultModel& model = schedule.model;
  const Expected expected = brute_force(schedule.windows, 0);
  ActiveFaults snapshot;
  model.resolve(0, snapshot);
  EXPECT_EQ(snapshot.size(), expected.want.size());
  EXPECT_EQ(model.fault_count(), expected.want.size());
  for (Node v = 0; v < net.node_count(); ++v) {
    ASSERT_EQ(snapshot.node_faulty(v), v % 3 == 0) << v;
    ASSERT_EQ(model.node_faulty_at(v), v % 3 == 0) << v;
    for (unsigned i = 0; i < net.m(); ++i) {
      ASSERT_FALSE(snapshot.link_faulty(v, net.internal_neighbor(v, i)));
      ASSERT_FALSE(model.link_faulty_at(v, net.internal_neighbor(v, i)));
    }
    const Node gateway = net.external_neighbor(v);
    ASSERT_EQ(snapshot.link_faulty(v, gateway),
              expected.link_faulty(v, gateway))
        << v;
    ASSERT_EQ(model.link_faulty_at(v, gateway),
              expected.link_faulty(v, gateway))
        << v;
  }
}

// ---- validity intervals ---------------------------------------------------

struct Interval {
  std::uint64_t from;
  std::uint64_t until;
};

Interval interval_at(const FaultModel& model, std::uint64_t time) {
  ActiveFaults snapshot;
  model.resolve(time, snapshot);
  return {snapshot.valid_from(), snapshot.valid_until()};
}

void expect_interval(const FaultModel& model, std::uint64_t time,
                     std::uint64_t from, std::uint64_t until) {
  const Interval got = interval_at(model, time);
  EXPECT_EQ(got.from, from) << "time " << time;
  EXPECT_EQ(got.until, until) << "time " << time;
}

TEST(ActiveFaults, EmptyModelIsValidForever) {
  const FaultModel model;
  expect_interval(model, 0, 0, kNeverRepaired);
  expect_interval(model, 12345, 0, kNeverRepaired);
}

TEST(ActiveFaults, PermanentFaultsBoundOnlyFromBelow) {
  FaultModel model;
  model.fail_node(1);         // from 0
  model.fail_link(2, 3, 5);   // from 5
  model.fail_node(4, 9);      // from 9
  expect_interval(model, 0, 0, 5);
  expect_interval(model, 4, 0, 5);
  expect_interval(model, 5, 5, 9);
  expect_interval(model, 8, 5, 9);
  expect_interval(model, 9, 9, kNeverRepaired);
  expect_interval(model, 1'000'000, 9, kNeverRepaired);
}

TEST(ActiveFaults, TransientWindowsBoundOnBothSides) {
  FaultModel model;
  model.fail_node(1, 10, 20);
  model.fail_link(1, 2, 15, 30);
  expect_interval(model, 0, 0, 10);
  expect_interval(model, 9, 0, 10);
  expect_interval(model, 10, 10, 15);
  expect_interval(model, 14, 10, 15);
  expect_interval(model, 15, 15, 20);
  expect_interval(model, 19, 15, 20);
  expect_interval(model, 20, 20, 30);
  expect_interval(model, 30, 30, kNeverRepaired);
  expect_interval(model, 99, 30, kNeverRepaired);
}

TEST(ActiveFaults, MixedWindowsBoundOnBothSides) {
  FaultModel model;
  model.fail_node(7, 8);       // permanent from 8
  model.fail_node(7, 3, 12);   // the same node, transient
  model.fail_link(4, 5, 6, 7);
  expect_interval(model, 0, 0, 3);
  expect_interval(model, 3, 3, 6);
  expect_interval(model, 6, 6, 7);
  expect_interval(model, 7, 7, 8);
  expect_interval(model, 8, 8, 12);
  expect_interval(model, 11, 8, 12);
  expect_interval(model, 12, 12, kNeverRepaired);
}

TEST(ActiveFaults, CoversExactlyTheTimesWithTheSameFacts) {
  // Random mixed schedules: a snapshot resolved at t covers t' only when
  // no window boundary separates them, and then every registered fact
  // reads the same at t' as the snapshot says.
  util::Xoshiro256 rng{0xAF20};
  for (int round = 0; round < 20; ++round) {
    Schedule schedule;
    const FaultModel& model = schedule.model;
    std::vector<std::uint64_t> boundaries;
    std::vector<Node> nodes;
    std::vector<std::pair<Node, Node>> links;
    for (int k = 0; k < 6; ++k) {
      const std::uint64_t fail = rng.below(40);
      const std::uint64_t repair =
          rng.chance(0.3) ? kNeverRepaired : fail + 1 + rng.below(20);
      boundaries.push_back(fail);
      if (repair != kNeverRepaired) boundaries.push_back(repair);
      if (rng.chance(0.5)) {
        nodes.push_back(rng.below(16));
        schedule.fail_node(nodes.back(), fail, repair);
      } else {
        const Node u = rng.below(16);
        links.emplace_back(u, u ^ (1 + rng.below(15)));
        schedule.fail_link(links.back().first, links.back().second, fail,
                           repair);
      }
    }
    ActiveFaults snapshot;
    for (std::uint64_t t = 0; t < 70; ++t) {
      model.resolve(t, snapshot);
      const auto separated = [&](std::uint64_t other) {
        const std::uint64_t lo = std::min(t, other);
        const std::uint64_t hi = std::max(t, other);
        return std::any_of(boundaries.begin(), boundaries.end(),
                           [&](std::uint64_t b) { return lo < b && b <= hi; });
      };
      for (std::uint64_t other = 0; other < 70; ++other) {
        ASSERT_EQ(snapshot.covers(model.version(), other), !separated(other))
            << "round " << round << " resolved at " << t << ", asked " << other;
        if (!snapshot.covers(model.version(), other)) continue;
        const Expected expected = brute_force(schedule.windows, other);
        for (const Node v : nodes) {
          ASSERT_EQ(snapshot.node_faulty(v), expected.node_faulty(v));
          ASSERT_EQ(model.node_faulty_at(v, other), expected.node_faulty(v));
        }
        for (const auto& [u, v] : links) {
          ASSERT_EQ(snapshot.link_faulty(u, v), expected.link_faulty(u, v));
          ASSERT_EQ(model.link_faulty_at(u, v, other),
                    expected.link_faulty(u, v));
        }
      }
    }
  }
}

TEST(ActiveFaults, ResolveMatchesABruteForcePassOverEveryWindow) {
  // Random window sets registered out of time order, mixing permanent and
  // transient windows, with several windows (overlapping or not) on one
  // fact. At each time checked, 0, every boundary, the instant before each
  // and the last representable time, the snapshot's facts are, each once,
  // the facts some window holds active, and its interval is the boundaries
  // around the time, as a pass over every window computes them.
  util::Xoshiro256 rng{0xAF40};
  ActiveFaults snapshot;
  for (int round = 0; round < 40; ++round) {
    FaultModel model;
    std::vector<Window> windows;
    std::set<std::uint64_t> times{0, kNeverRepaired};
    const std::uint64_t count = 1 + rng.below(60);
    for (std::uint64_t k = 0; k < count; ++k) {
      // Few distinct facts, so facts repeat and their windows overlap.
      const Node a = rng.below(6);
      const Node b = rng.chance(0.5) ? a : rng.below(6);
      const std::uint64_t fail = rng.below(50);
      const std::uint64_t repair =
          rng.chance(0.25) ? kNeverRepaired
                           : fail + 1 + rng.below(rng.chance(0.1) ? 200 : 8);
      if (a == b) {
        model.fail_node(a, fail, repair);
      } else {
        model.fail_link(a, b, fail, repair);
      }
      windows.push_back({std::min(a, b), std::max(a, b), fail, repair});
      for (const std::uint64_t boundary : {fail, repair}) {
        if (boundary == kNeverRepaired) continue;
        times.insert(boundary);
        if (boundary > 0) times.insert(boundary - 1);
      }
    }
    for (const std::uint64_t time : times) {
      const auto [want, from, until] = brute_force(windows, time);
      model.resolve(time, snapshot);
      std::vector<std::pair<Node, Node>> got;
      for (const ActiveFaults::Fact& fact : snapshot.facts()) {
        got.emplace_back(fact.a, fact.b);
      }
      std::sort(got.begin(), got.end());
      ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
          << "a fact is listed twice; round " << round << " time " << time;
      const std::vector<std::pair<Node, Node>> expected(want.begin(),
                                                         want.end());
      ASSERT_EQ(got, expected) << "round " << round << " time " << time;
      ASSERT_EQ(snapshot.size(), want.size());
      ASSERT_EQ(snapshot.valid_from(), from)
          << "round " << round << " time " << time;
      ASSERT_EQ(snapshot.valid_until(), until)
          << "round " << round << " time " << time;
      for (const auto& [a, b] : want) {
        ASSERT_TRUE(a == b ? snapshot.node_faulty(a)
                           : snapshot.link_faulty(b, a));
      }
    }
  }
}

// ---- version rules --------------------------------------------------------

TEST(ActiveFaults, DefaultSnapshotCoversNothing) {
  const ActiveFaults snapshot;
  const FaultModel model;
  EXPECT_FALSE(snapshot.covers(model.version(), 0));
  EXPECT_FALSE(snapshot.node_faulty(0));
  EXPECT_FALSE(snapshot.link_faulty(0, 1));
}

TEST(ActiveFaults, CopiesShareTheStamp) {
  FaultModel a;
  a.fail_node(3);
  const FaultModel b = a;
  EXPECT_EQ(b.version(), a.version());
  FaultModel c;
  c = a;
  EXPECT_EQ(c.version(), a.version());

  ActiveFaults snapshot;
  a.resolve(0, snapshot);
  EXPECT_TRUE(snapshot.covers(b.version(), 0));
  EXPECT_TRUE(snapshot.node_faulty(3));
}

TEST(ActiveFaults, EveryMutationRestamps) {
  FaultModel model;
  ActiveFaults snapshot;
  model.resolve(0, snapshot);
  EXPECT_TRUE(snapshot.covers(model.version(), 0));

  const std::uint64_t before = model.version();
  model.fail_node(5);
  EXPECT_NE(model.version(), before);
  EXPECT_FALSE(snapshot.covers(model.version(), 0));
  model.resolve(0, snapshot);
  EXPECT_TRUE(snapshot.node_faulty(5));

  const std::uint64_t after_node = model.version();
  model.fail_link(5, 6, 0, 4);
  EXPECT_NE(model.version(), after_node);
  EXPECT_FALSE(snapshot.covers(model.version(), 0));
  model.resolve(0, snapshot);
  EXPECT_TRUE(snapshot.link_faulty(6, 5));

  // A copy taken before the mutation keeps the old stamp and contents.
  const FaultModel copy = model;
  model.fail_node(9);
  EXPECT_NE(copy.version(), model.version());
  EXPECT_TRUE(snapshot.covers(copy.version(), 0));
  EXPECT_FALSE(snapshot.covers(model.version(), 0));
}

TEST(ActiveFaults, MovedFromModelNeverServesAStaleSnapshot) {
  FaultModel source;
  source.fail_node(2);
  ActiveFaults snapshot;
  source.resolve(0, snapshot);

  const FaultModel target = std::move(source);
  // The target has the contents the snapshot was resolved from.
  EXPECT_TRUE(snapshot.covers(target.version(), 0));
  // The source does not, whatever it now holds.
  EXPECT_FALSE(snapshot.covers(source.version(), 0));
  source.resolve(0, snapshot);
  EXPECT_EQ(snapshot.node_faulty(2), source.node_faulty_at(2));

  FaultModel assigned;
  FaultModel other;
  other.fail_node(4);
  other.resolve(0, snapshot);
  assigned = std::move(other);
  EXPECT_TRUE(snapshot.covers(assigned.version(), 0));
  EXPECT_FALSE(snapshot.covers(other.version(), 0));
}

TEST(ActiveFaults, ModelReassignedInPlaceNeverServesAStaleSnapshot) {
  FaultModel model;
  model.fail_node(1);
  ActiveFaults snapshot;
  model.resolve(0, snapshot);

  model = FaultModel{};  // empty now
  EXPECT_FALSE(snapshot.covers(model.version(), 0));
  model.resolve(0, snapshot);
  EXPECT_FALSE(snapshot.node_faulty(1));

  FaultModel replacement;
  replacement.fail_node(8);
  model = replacement;
  EXPECT_FALSE(snapshot.covers(model.version(), 0));
  model.resolve(0, snapshot);
  EXPECT_TRUE(snapshot.node_faulty(8));
}

TEST(ActiveFaults, TwoModelsBuiltAtOneAddressGetDistinctStamps) {
  std::optional<FaultModel> slot;
  ActiveFaults snapshot;

  slot.emplace();
  slot->fail_node(5);
  const FaultModel* first_address = &*slot;
  const std::uint64_t first = slot->version();
  slot->resolve(0, snapshot);
  slot.reset();

  slot.emplace();
  slot->fail_node(6);
  ASSERT_EQ(&*slot, first_address);
  EXPECT_NE(slot->version(), first);
  EXPECT_FALSE(snapshot.covers(slot->version(), 0));
  slot->resolve(0, snapshot);
  EXPECT_FALSE(snapshot.node_faulty(5));
  EXPECT_TRUE(snapshot.node_faulty(6));
}

TEST(ActiveFaults, ReResolvingShrinksAndGrows) {
  // One snapshot serves a large model, a small one and the large one
  // again: nothing of the previous contents survives a resolve.
  const HhcTopology net{3};
  const FaultModel large = churn_schedule(net, 0xAF30).model;
  FaultModel small;
  small.fail_node(17);
  ActiveFaults snapshot;
  for (int round = 0; round < 3; ++round) {
    large.resolve(2, snapshot);
    EXPECT_EQ(snapshot.size(), large.fault_count(2));
    small.resolve(2, snapshot);
    EXPECT_EQ(snapshot.size(), 1u);
    for (Node v = 0; v < net.node_count(); ++v) {
      ASSERT_EQ(snapshot.node_faulty(v), v == 17) << v;
    }
  }
}

TEST(ActiveFaults, PointQueriesAgreeAcrossThreads) {
  // Four threads read two shared const models through the point queries,
  // each through its own per-thread snapshot: a run over the boundary times
  // (every run crosses window boundaries, so the snapshot re-resolves), on
  // one model and then the other, each answer checked against the
  // brute-force pass. Under TSan this is the snapshot's data-race check.
  const HhcTopology net{2};
  const Schedule first = churn_schedule(net, 0xAF50);
  const Schedule second = churn_schedule(net, 0xAF51);
  const auto non_edges = sample_non_edges(net, 0xAF52);
  const std::vector<std::uint64_t> times = boundary_times();
  const auto oracle = [&](const Schedule& schedule) {
    std::vector<Expected> expected;
    for (const std::uint64_t time : times) {
      expected.push_back(brute_force(schedule.windows, time));
    }
    return expected;
  };
  const std::vector<Expected> expected_first = oracle(first);
  const std::vector<Expected> expected_second = oracle(second);

  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      for (int round = 0; round < 4; ++round) {
        for (const auto& [schedule, expected] :
             {std::pair{&first, &expected_first},
              std::pair{&second, &expected_second}}) {
          const FaultModel& model = schedule->model;
          // Each thread starts its run at another time.
          for (std::size_t k = 0; k < times.size(); ++k) {
            const std::size_t i = (k + id * 5) % times.size();
            const std::uint64_t time = times[i];
            wrong[id] += mismatches(
                net, non_edges, (*expected)[i],
                [&](Node v) { return model.node_faulty_at(v, time); },
                [&](Node u, Node v) {
                  return model.link_faulty_at(u, v, time);
                });
            if (model.fault_count(time) != (*expected)[i].want.size()) {
              ++wrong[id];
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t id = 0; id < kThreads; ++id) {
    EXPECT_EQ(wrong[id], 0u) << "thread " << id;
  }
}

}  // namespace
}  // namespace hhc::core
