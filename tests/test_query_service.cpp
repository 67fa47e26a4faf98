#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/disjoint.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/routing.hpp"
#include "fault/adaptive_router.hpp"
#include "obs/metrics.hpp"
#include "orbit_reference.hpp"
#include "query/path_service.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace hhc::query {
namespace {

using core::HhcTopology;
using core::Node;

TEST(PathService, PristineAnswersBitIdenticalToDirectConstruction) {
  // m = 5 has no orbit table: the service answers the construction itself.
  const HhcTopology net{5};
  PathService service{net};
  for (const auto& [s, t] : core::sample_pairs(net, 40, 77)) {
    const auto direct = core::node_disjoint_paths(net, s, t);
    const auto answer = service.answer(PairQuery{.s = s, .t = t});
    EXPECT_EQ(answer.level, DegradationLevel::kGuaranteed);
    EXPECT_FALSE(answer.used_fallback);
    ASSERT_EQ(answer.paths.size(), direct.paths.size());
    for (std::size_t i = 0; i < direct.paths.size(); ++i) {
      EXPECT_EQ(answer.paths[i], direct.paths[i]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(PathService, PristineAnswersAreOrbitImagesOfTheConstruction) {
  // At m <= 4 the answer is the automorphism image of the orbit
  // representative's construction (core/orbit_table.hpp).
  const HhcTopology net{3};
  PathService service{net};
  for (const auto& [s, t] : core::sample_pairs(net, 300, 77)) {
    const auto direct = orbit_reference::expected_answer(net, s, t);
    const auto answer = service.answer(PairQuery{.s = s, .t = t});
    EXPECT_EQ(answer.level, DegradationLevel::kGuaranteed);
    EXPECT_FALSE(answer.used_fallback);
    ASSERT_EQ(answer.paths.size(), direct.paths.size());
    for (std::size_t i = 0; i < direct.paths.size(); ++i) {
      EXPECT_EQ(answer.paths[i], direct.paths[i]) << "s=" << s << " t=" << t;
    }
  }
}

TEST(PathService, SelfQueryIsTrivialNotAnError) {
  const HhcTopology net{2};
  PathService service{net};
  const auto answer = service.answer(PairQuery{.s = 9, .t = 9});
  EXPECT_EQ(answer.level, DegradationLevel::kGuaranteed);
  ASSERT_EQ(answer.paths.size(), 1u);
  EXPECT_EQ(answer.paths[0], core::Path{9});
}

TEST(PathService, OutOfRangeNodesThrow) {
  const HhcTopology net{2};
  PathService service{net};
  EXPECT_THROW((void)service.answer(PairQuery{.s = 0, .t = net.node_count()}),
               std::invalid_argument);
  EXPECT_THROW((void)service.answer(PairQuery{.s = net.node_count(), .t = 0}),
               std::invalid_argument);
}

TEST(PathService, FaultAwareAnswersMatchTheAdaptiveRouter) {
  const HhcTopology net{2};
  PathService service{net};
  // The service's router reads containers through the cache, so the
  // single-query reference does too.
  core::ContainerCache cache{net};
  const fault::AdaptiveRouter router{cache};
  util::Xoshiro256 rng{404};
  for (const auto& [s, t] : core::sample_pairs(net, 120, 21)) {
    core::FaultModel::RandomSpec spec;
    spec.node_faults = rng.below(net.m() + 2);
    spec.external_link_faults = rng.below(2);
    const auto faults = core::FaultModel::random(net, spec, s, t, rng);
    const auto expected = router.route(s, t, faults);
    const auto answer =
        service.answer(PairQuery{.s = s, .t = t, .faults = &faults});
    ASSERT_EQ(answer.level, expected.level);
    EXPECT_EQ(answer.paths, expected.paths);
    EXPECT_EQ(answer.container_paths_blocked,
              expected.container_paths_blocked);
    EXPECT_EQ(answer.used_fallback, expected.used_fallback);
  }
}

TEST(PathService, BatchAnswersInInputOrder) {
  const HhcTopology net{3};
  PathService service{net, {.threads = 4}};
  const auto pairs = core::sample_pairs(net, 200, 31);
  std::vector<PairQuery> queries;
  for (const auto& [s, t] : pairs) queries.push_back({.s = s, .t = t});
  const auto results = service.answer(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto expected =
        orbit_reference::expected_answer(net, queries[i].s, queries[i].t);
    EXPECT_EQ(results[i].paths, expected.paths) << "batch slot " << i;
  }
}

TEST(PathService, BatchIsDeterministicForAnyThreadCount) {
  const HhcTopology net{3};
  const auto pairs = core::sample_pairs(net, 150, 47);
  util::Xoshiro256 rng{48};
  core::FaultModel::RandomSpec spec;
  spec.node_faults = 2;
  const auto faults =
      core::FaultModel::random(net, spec, pairs[0].s, pairs[0].t, rng);
  std::vector<PairQuery> queries;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Mix pristine and fault-aware queries in one batch.
    queries.push_back(PairQuery{.s = pairs[i].s,
                                .t = pairs[i].t,
                                .faults = i % 3 == 0 ? &faults : nullptr});
  }

  PathService reference{net, {.threads = 1}};
  const auto expected = reference.answer(queries);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    PathService service{net, {.threads = threads}};
    const auto results = service.answer(queries);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].paths, expected[i].paths)
          << "threads=" << threads << " slot " << i;
      EXPECT_EQ(results[i].level, expected[i].level);
      EXPECT_EQ(results[i].used_fallback, expected[i].used_fallback);
    }
  }
}

TEST(PathService, MalformedBatchElementDoesNotPoisonSiblings) {
  // Old semantics rethrew the element's std::invalid_argument and threw the
  // whole batch away. Now the bad element alone reports kInvalid and every
  // sibling answers normally — one typo must not cost a 10k-query batch.
  const HhcTopology net{2};
  PathService service{net, {.threads = 2}};
  const std::vector<PairQuery> queries{{.s = 0, .t = 5},
                                       {.s = 0, .t = net.node_count()},
                                       {.s = 3, .t = 60}};
  const auto results = service.answer(queries);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_EQ(results[0].outcome, RouteOutcome::kOk);
  EXPECT_EQ(results[0].paths,
            orbit_reference::expected_answer(net, 0, 5).paths);
  EXPECT_EQ(results[1].outcome, RouteOutcome::kInvalid);
  EXPECT_TRUE(results[1].paths.empty());
  EXPECT_EQ(results[2].outcome, RouteOutcome::kOk);
  EXPECT_EQ(results[2].paths,
            orbit_reference::expected_answer(net, 3, 60).paths);

  const auto stats = service.stats();
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.guaranteed + stats.best_effort + stats.disconnected +
                stats.shed + stats.timed_out + stats.invalid,
            stats.queries);
}

TEST(PathService, EmptyBatchIsANoop) {
  const HhcTopology net{2};
  PathService service{net, {.threads = 2}};
  const std::vector<PairQuery> queries;
  EXPECT_TRUE(service.answer(queries).empty());
  EXPECT_EQ(service.stats().queries, 0u);
}

TEST(PathService, SelfQueryWithFaultViewAcrossEveryEntryPoint) {
  // s == t stays the trivial answer under a fault view as long as the node
  // itself is alive; a dead node is an authoritative disconnect, not an
  // error. answer_view stays pristine-only and rejects the view either way.
  const HhcTopology net{2};
  PathService service{net};
  core::FaultModel faults;
  faults.fail_node(7);

  const auto alive = service.answer(PairQuery{.s = 9, .t = 9, .faults = &faults});
  EXPECT_EQ(alive.outcome, RouteOutcome::kOk);
  EXPECT_EQ(alive.level, DegradationLevel::kGuaranteed);
  ASSERT_EQ(alive.paths.size(), 1u);
  EXPECT_EQ(alive.paths[0], core::Path{9});

  const auto dead = service.answer(PairQuery{.s = 7, .t = 7, .faults = &faults});
  EXPECT_EQ(dead.outcome, RouteOutcome::kOk);
  EXPECT_EQ(dead.level, DegradationLevel::kDisconnected);
  EXPECT_TRUE(dead.paths.empty());

  const std::vector<PairQuery> queries{{.s = 9, .t = 9, .faults = &faults},
                                       {.s = 7, .t = 7, .faults = &faults}};
  const auto batch = service.answer(queries);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].paths, alive.paths);
  EXPECT_EQ(batch[0].level, alive.level);
  EXPECT_EQ(batch[1].level, dead.level);

  EXPECT_THROW(
      (void)service.answer_view(PairQuery{.s = 9, .t = 9, .faults = &faults}),
      std::invalid_argument);
}

TEST(PathService, StatsCountQueriesLevelsAndLatency) {
  const HhcTopology net{2};
  PathService service{net};
  for (const auto& [s, t] : core::sample_pairs(net, 40, 3)) {
    (void)service.answer(PairQuery{.s = s, .t = t});
  }
  core::FaultModel faults;
  faults.fail_node(1);
  (void)service.answer(PairQuery{.s = 0, .t = 60, .faults = &faults});

  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, 41u);
  EXPECT_EQ(stats.pristine, 40u);
  EXPECT_EQ(stats.fault_aware, 1u);
  EXPECT_EQ(stats.guaranteed + stats.best_effort + stats.disconnected,
            stats.queries);
  EXPECT_EQ(stats.latency.count, stats.queries);
  EXPECT_GT(stats.latency.max_value, 0.0);
  EXPECT_GE(stats.latency.percentile(0.99), stats.latency.percentile(0.50));
  // Every non-self query performs one cache lookup: 40 pristine + 1 via the
  // router's shared-cache container fetch.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 41u);
}

TEST(LatencyHistogram, PercentileSkipsEmptyLeadingBuckets) {
  // The service's latency is an obs::Histogram::Snapshot, rendered from
  // the conservative upper bucket edge. The pre-obs implementation
  // computed target = ceil(p * count), which is 0 at p = 0 — "satisfied"
  // by an empty bucket 0, reporting a phantom edge; p = 0 must skip empty
  // leading buckets instead.
  obs::Histogram latency;
  latency.record(100.0);  // log-linear bucket [96, 104)
  ServiceStats stats;
  stats.latency = latency.snapshot();
  EXPECT_EQ(stats.latency.percentile(0.0), 104.0);
  EXPECT_EQ(stats.latency.percentile(1.0), 104.0);
  EXPECT_NE(stats.to_csv().find(
                "latency,answer_us,,1,104.000000,104.000000,104.000000,"),
            std::string::npos);
}

TEST(LatencyHistogram, ErrorSemanticsMatchSimPercentile) {
  // A service that has answered nothing reports an empty latency
  // snapshot; empty snapshots and out-of-range p throw, exactly like
  // sim::percentile, instead of silently returning a bogus 0 or edge.
  const HhcTopology net{2};
  PathService service{net};
  EXPECT_THROW((void)service.stats().latency.percentile(0.5),
               std::invalid_argument);
  (void)service.answer(PairQuery{.s = 0, .t = 60});
  const auto latency = service.stats().latency;
  ASSERT_EQ(latency.count, 1u);
  EXPECT_THROW((void)latency.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)latency.percentile(1.5), std::invalid_argument);
  EXPECT_GE(latency.percentile(0.5), latency.max_value);
}

TEST(LatencyHistogram, SubMicrosecondAndHugeSamples) {
  obs::Histogram latency;
  latency.record(0.25);   // log-linear bucket [0.25, 0.28125)
  latency.record(-3.0);   // clamps to bucket 0, ignored for max
  latency.record(1e30);   // beyond 2^30 µs: saturates the top bucket
  const auto snap = latency.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets.front(), 1u);
  EXPECT_EQ(snap.buckets[obs::Histogram::bucket_of(0.25)], 1u);
  EXPECT_EQ(snap.buckets.back(), 1u);
  EXPECT_EQ(snap.max_value, 1e30);
  // Bucket 0's upper edge, then the sub-microsecond sample's edge.
  EXPECT_EQ(snap.percentile(1.0 / 3.0), std::ldexp(1.0, -10));
  EXPECT_EQ(snap.percentile(0.5), 0.28125);
  // The saturated top bucket reports the max: still an upper bound.
  EXPECT_EQ(snap.percentile(1.0), 1e30);
}

TEST(PathService, EmptyStatsRenderWithoutThrowing) {
  // A service that has answered nothing must still render: the CSV/JSON/
  // table emitters substitute 0 for percentiles of an empty histogram
  // rather than tripping its empty-throw contract.
  const HhcTopology net{2};
  const PathService service{net};
  const auto stats = service.stats();
  EXPECT_EQ(stats.latency.count, 0u);
  EXPECT_NE(stats.to_csv().find("service,queries,0"), std::string::npos);
  // The empty latency distribution renders count/max but no percentiles.
  EXPECT_NE(stats.to_csv().find("latency,answer_us,,0,,,"),
            std::string::npos);
  EXPECT_NE(stats.to_json().find("\"name\":\"queries\",\"value\":0"),
            std::string::npos);
}

TEST(PathService, StatsResetKeepsCacheContents) {
  const HhcTopology net{2};
  PathService service{net};
  (void)service.answer(PairQuery{.s = 0, .t = 60});
  service.reset_stats();
  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.latency.count, 0u);
  // The answer filled one orbit record; reset_stats leaves it in place.
  EXPECT_EQ(stats.cache.orbit_entries, 1u);
}

TEST(PathService, EmitsWellFormedCsvAndJson) {
  const HhcTopology net{2};
  PathService service{net, {.cache_shards = 4}};
  for (const auto& [s, t] : core::sample_pairs(net, 25, 8)) {
    (void)service.answer(PairQuery{.s = s, .t = t});
  }
  const auto stats = service.stats();

  const auto csv = stats.to_csv();
  EXPECT_NE(csv.find("section,name,value,count,p50,p90,p99,max"),
            std::string::npos);
  EXPECT_NE(csv.find("service,queries,25"), std::string::npos);
  EXPECT_NE(csv.find("cache,hits,"), std::string::npos);
  EXPECT_NE(csv.find("cache,entries,"), std::string::npos);
  EXPECT_NE(csv.find("cache.orbit,entries,"), std::string::npos);
  EXPECT_NE(csv.find("cache.orbit,bytes,"), std::string::npos);
  EXPECT_NE(csv.find("latency,answer_us,"), std::string::npos);
  // The per-outcome latency rows: every answer here completed, so the
  // ok row carries all 25 samples and the timed-out row none.
  EXPECT_NE(csv.find("latency,answer_ok_us,,25,"), std::string::npos);
  EXPECT_NE(csv.find("latency,answer_timed_out_us,,0,"), std::string::npos);
  // Header + one line per row, nothing else.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1 + stats.rows().size());

  const auto json = stats.to_json();  // JsonWriter throws on malformed output
  EXPECT_NE(json.find("\"name\":\"queries\",\"value\":25"), std::string::npos);
  EXPECT_NE(json.find("\"section\":\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"section\":\"cache.orbit\""), std::string::npos);
}

TEST(PathService, FaultAwareQueriesShareThePristineCache) {
  // One service, same pair queried pristine then fault-aware: the router's
  // container lookup must be served from the orbit record the pristine
  // query filled, without a second construction.
  const HhcTopology net{2};
  PathService service{net};
  (void)service.answer(PairQuery{.s = 0, .t = 60});
  EXPECT_EQ(service.cache().misses(), 1u);
  core::FaultModel faults;
  faults.fail_node(33);
  const auto answer =
      service.answer(PairQuery{.s = 0, .t = 60, .faults = &faults});
  EXPECT_TRUE(answer.cache_hit);
  EXPECT_EQ(service.cache().stats().orbit_entries, 1u);
}

TEST(PathService, AnswerViewMatchesAnswer) {
  const HhcTopology net{3};
  PathService service{net};
  for (const auto& [s, t] : core::sample_pairs(net, 40, 31)) {
    const RouteView view = service.answer_view(PairQuery{.s = s, .t = t});
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.level, DegradationLevel::kGuaranteed);
    const auto direct = service.answer(PairQuery{.s = s, .t = t});
    EXPECT_EQ(view.container.materialize().paths, direct.paths);
  }
}

TEST(PathService, AnswerViewSelfQueryIsTrivial) {
  const HhcTopology net{2};
  PathService service{net};
  const RouteView view = service.answer_view(PairQuery{.s = 42, .t = 42});
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view.cache_hit);
  EXPECT_EQ(view.container.path_count(), 1u);
  EXPECT_EQ(view.container.path_size(0), 1u);
  EXPECT_EQ(view.container.node(0, 0), 42u);
  EXPECT_EQ(view.level, DegradationLevel::kGuaranteed);
}

TEST(PathService, AnswerViewCountsInTelemetry) {
  const HhcTopology net{2};
  PathService service{net};
  (void)service.answer_view(PairQuery{.s = 0, .t = 60});
  (void)service.answer_view(PairQuery{.s = 0, .t = 60});
  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.pristine, 2u);
  EXPECT_EQ(stats.guaranteed, 2u);
  EXPECT_EQ(stats.latency.count, 2u);
  EXPECT_EQ(service.cache().hits(), 1u);
  EXPECT_EQ(service.cache().misses(), 1u);
}

TEST(PathService, AnswerViewRejectsBadInput) {
  const HhcTopology net{2};
  PathService service{net};
  EXPECT_THROW((void)service.answer_view(PairQuery{.s = 0, .t = net.node_count()}),
               std::invalid_argument);
  // The zero-copy path is pristine-only by contract: degraded routes must
  // be materialized through answer().
  core::FaultModel faults;
  faults.fail_node(33);
  EXPECT_THROW(
      (void)service.answer_view(PairQuery{.s = 0, .t = 60, .faults = &faults}),
      std::invalid_argument);
}

TEST(PathService, ExpiredDeadlineAnswersTimedOutNotWrong) {
  const HhcTopology net{2};
  PathService service{net};
  PairQuery query{.s = 0, .t = 60};
  query.deadline = util::Deadline::after_micros(0.0);
  const auto result = service.answer(query);
  EXPECT_EQ(result.outcome, RouteOutcome::kTimedOut);
  EXPECT_TRUE(result.paths.empty());

  const auto stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.guaranteed + stats.best_effort + stats.disconnected +
                stats.shed + stats.timed_out + stats.invalid,
            stats.queries);
}

TEST(PathService, CancellationTokenAbandonsTheQuery) {
  const HhcTopology net{2};
  PathService service{net};
  util::CancellationToken token;
  token.cancel();
  PairQuery query{.s = 0, .t = 60};
  query.cancel = &token;
  EXPECT_EQ(service.answer(query).outcome, RouteOutcome::kTimedOut);

  token.reset();
  EXPECT_EQ(service.answer(query).outcome, RouteOutcome::kOk);
}

TEST(PathService, NoDeadlineAnswersAreBitIdenticalToTheUnlimitedService) {
  // The acceptance pin for the whole overload layer: with no deadline and
  // an inert admission config, answers are bit-identical to a service
  // without the layer (the construction itself is untouched).
  const HhcTopology net{2};
  PathService plain{net};
  PathService gated{net, {.admission = {.max_in_flight = 64,
                                        .breaker_threshold = 8}}};
  for (const auto& [s, t] : core::sample_pairs(net, 150, 66)) {
    const auto expected = plain.answer(PairQuery{.s = s, .t = t});
    const auto actual = gated.answer(PairQuery{.s = s, .t = t});
    ASSERT_EQ(actual.outcome, RouteOutcome::kOk);
    EXPECT_EQ(actual.paths, expected.paths);
    EXPECT_EQ(actual.level, expected.level);
  }
}

TEST(PathService, AnswerViewHonorsDeadlines) {
  const HhcTopology net{2};
  PathService service{net};
  PairQuery query{.s = 0, .t = 60};
  query.deadline = util::Deadline::after_micros(0.0);
  const RouteView view = service.answer_view(query);
  EXPECT_EQ(view.outcome, RouteOutcome::kTimedOut);
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(service.stats().timed_out, 1u);
}

TEST(PathService, BreakerShortCircuitsRepeatedDisconnectsUntilEpochAdvance) {
  const HhcTopology net{2};
  PathServiceConfig config;
  config.admission.breaker_threshold = 2;
  PathService service{net, config};

  core::FaultModel faults;
  faults.fail_node(60);  // dead endpoint: authoritative disconnect
  const PairQuery query{.s = 0, .t = 60, .faults = &faults};

  EXPECT_EQ(service.answer(query).level, DegradationLevel::kDisconnected);
  EXPECT_EQ(service.answer(query).level, DegradationLevel::kDisconnected);
  // Streak hit the threshold: the third query is shed, not re-swept.
  EXPECT_EQ(service.answer(query).outcome, RouteOutcome::kShed);
  EXPECT_EQ(service.answer(query).outcome, RouteOutcome::kShed);

  auto stats = service.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_short_circuits, 2u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.disconnected, 2u);

  // The fault landscape changed (say, the node was repaired): every pair
  // gets a fresh authoritative check.
  service.advance_fault_epoch();
  core::FaultModel repaired;
  const auto back =
      service.answer(PairQuery{.s = 0, .t = 60, .faults = &repaired});
  EXPECT_EQ(back.outcome, RouteOutcome::kOk);
  EXPECT_NE(back.level, DegradationLevel::kDisconnected);
}

TEST(PathService, OutcomeCountersLandInServiceStatsNotTheRegistry) {
  // Shed-fast contract: shed/timed-out totals are per-thread striped
  // ServiceStats tallies — the rejection path writes NO registry counters
  // and NO histograms. Breaker trips and short-circuits are counted once,
  // in ServiceStats too; the registry carries no duplicate.
  const HhcTopology net{2};

  PathServiceConfig config;
  config.admission.breaker_threshold = 1;
  PathService service{net, config};

  PairQuery expired{.s = 0, .t = 60};
  expired.deadline = util::Deadline::after_micros(0.0);
  (void)service.answer(expired);  // admission-time expiry: kTimedOut once

  core::FaultModel faults;
  faults.fail_node(60);
  const PairQuery dead{.s = 0, .t = 60, .faults = &faults};
  (void)service.answer(dead);  // trips the breaker (threshold 1)
  (void)service.answer(dead);  // short-circuits to kShed

  const auto stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.queries, 3u);
  // The admission-time expiry did no admitted work: only the two
  // fault-aware answers show up in the service-time histogram.
  EXPECT_EQ(stats.latency.count, 2u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_short_circuits, 1u);
  EXPECT_EQ(stats.latency_ok.count, 2u);
  EXPECT_EQ(stats.latency_timed_out.count, 0u);
  // No query-layer registry counter exists for any of these events.
  for (const auto& [name, value] :
       obs::MetricRegistry::global().snapshot().counters) {
    EXPECT_EQ(name.rfind("query.", 0), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace hhc::query
