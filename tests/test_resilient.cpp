#include <gtest/gtest.h>

#include "core/disjoint.hpp"
#include "sim/resilient.hpp"
#include "util/rng.hpp"

namespace hhc::sim {
namespace {

using core::FaultModel;
using core::HhcTopology;
using core::Node;

TEST(Resilient, AllStrategiesSucceedFaultFree) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  using TransferFn = TransferOutcome (*)(const HhcTopology&, Node, Node,
                                         const FaultModel&);
  for (const TransferFn outcome : {TransferFn{&serial_retry_transfer},
                                   TransferFn{&dispersal_transfer},
                                   TransferFn{&flooding_transfer}}) {
    const auto r = outcome(net, s, t, FaultModel{});
    EXPECT_TRUE(r.delivered);
    EXPECT_GT(r.completion_cycles, 0u);
  }
}

TEST(Resilient, SerialRetrySucceedsFirstTryWithoutFaults) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto r = serial_retry_transfer(net, s, t, FaultModel{});
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.wasted_transmissions, 0u);
  const auto container = core::node_disjoint_paths(net, s, t);
  EXPECT_EQ(r.completion_cycles, container.paths.front().size() - 1);
}

TEST(Resilient, SerialRetryPaysTimeoutPerBlockedPath) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  // Block the first path at its first hop, by a node fault or a link fault.
  FaultModel node_cut;
  node_cut.fail_node(container.paths[0][1]);
  FaultModel link_cut;
  link_cut.fail_link(container.paths[0][0], container.paths[0][1]);
  for (const FaultModel* faults : {&node_cut, &link_cut}) {
    const auto r = serial_retry_transfer(net, s, t, *faults);
    ASSERT_TRUE(r.delivered);
    EXPECT_EQ(r.attempts, 2u);
    const std::uint64_t timeout = 2 * (container.paths[0].size() - 1);
    EXPECT_EQ(r.completion_cycles,
              timeout + container.paths[1].size() - 1);
  }
}

TEST(Resilient, SerialRetryFailsOnlyWhenAllBlocked) {
  const HhcTopology net{1};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(3, 1);
  FaultModel faults;
  for (const Node v : net.neighbors(s)) faults.fail_node(v);
  const auto r = serial_retry_transfer(net, s, t, faults);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.attempts, net.degree());
}

TEST(Resilient, DispersalToleratesOneLoss) {
  const HhcTopology net{3};
  const Node s = net.encode(7, 1);
  const Node t = net.encode(200, 6);
  const auto container = core::node_disjoint_paths(net, s, t);
  FaultModel faults;
  // Cut one path in its middle: the fragment covers some hops (wasted
  // work) before being dropped, and the other m fragments reconstruct.
  const auto& victim = container.paths[2];
  ASSERT_GE(victim.size(), 4u);
  faults.fail_node(victim[victim.size() / 2]);
  const auto r = dispersal_transfer(net, s, t, faults);
  EXPECT_TRUE(r.delivered);
  EXPECT_GT(r.wasted_transmissions, 0u);
}

TEST(Resilient, DispersalFailsWithTwoFragmentLosses) {
  const HhcTopology net{2};  // m = 2: needs 2 of 3 fragments
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  FaultModel faults;
  faults.fail_node(container.paths[0][1]);
  faults.fail_node(container.paths[1][1]);
  const auto r = dispersal_transfer(net, s, t, faults);
  EXPECT_FALSE(r.delivered);
}

TEST(Resilient, FloodingSurvivesAllButOneCut) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  FaultModel faults;
  faults.fail_node(container.paths[0][1]);
  faults.fail_node(container.paths[1][1]);
  const auto r = flooding_transfer(net, s, t, faults);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.completion_cycles, container.paths[2].size() - 1);
}

TEST(Resilient, FloodingIsNeverSlowerThanDispersal) {
  const HhcTopology net{3};
  util::Xoshiro256 rng{4};
  for (int trial = 0; trial < 50; ++trial) {
    const Node s = rng.below(net.node_count());
    const Node t = rng.below(net.node_count());
    if (s == t) continue;
    const auto faults =
        FaultModel::random(net, {.node_faults = net.m()}, s, t, rng);
    const auto flood = flooding_transfer(net, s, t, faults);
    const auto disp = dispersal_transfer(net, s, t, faults);
    ASSERT_TRUE(flood.delivered);
    if (disp.delivered) {
      EXPECT_LE(flood.completion_cycles, disp.completion_cycles);
    }
  }
}

TEST(Resilient, BackoffSucceedsFirstTryWithoutFaults) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto r = backoff_retry_transfer(net, s, t, core::FaultModel{});
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.wasted_transmissions, 0u);
  const auto container = core::node_disjoint_paths(net, s, t);
  EXPECT_EQ(r.completion_cycles, container.paths.front().size() - 1);
}

TEST(Resilient, BackoffRidesOutTransientOutageSerialCannot) {
  // Every container path is blocked during [0, 16): serial retry burns its
  // m+1 attempts inside the outage and gives up; backoff's growing waits
  // carry it past the repair and a retried path goes through.
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  core::FaultModel faults;
  core::FaultModel permanent;  // the same victims, never repaired
  for (const auto& path : container.paths) {
    // Mid-path victims: a lost packet covers some hops first, so the
    // retries also show up as wasted transmissions.
    const Node victim = path[path.size() / 2];
    faults.fail_node(victim, /*fail_time=*/0, /*repair_time=*/16);
    permanent.fail_node(victim);
  }
  const auto serial = serial_retry_transfer(net, s, t, permanent);
  EXPECT_FALSE(serial.delivered);
  const auto backoff = backoff_retry_transfer(net, s, t, faults);
  ASSERT_TRUE(backoff.delivered);
  EXPECT_GT(backoff.attempts, 1u);
  EXPECT_GT(backoff.wasted_transmissions, 0u);
  // Success can only happen once the outage is over.
  EXPECT_GE(backoff.completion_cycles, 16u);
}

TEST(Resilient, BackoffGivesUpAfterMaxAttemptsWhenPermanentlyCut) {
  const HhcTopology net{1};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(3, 1);
  core::FaultModel faults;
  for (const Node v : net.neighbors(s)) faults.fail_node(v);
  const auto r = backoff_retry_transfer(net, s, t, faults, /*max_attempts=*/4);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.attempts, 4u);
}

TEST(Resilient, BackoffSurvivesTransientLinkFault) {
  // A link-only outage: the node-disjoint container has no defense, but a
  // retry after the repair window uses the same path successfully.
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  core::FaultModel faults;
  for (const auto& path : container.paths) {
    faults.fail_link(path[0], path[1], /*fail_time=*/0, /*repair_time=*/12);
  }
  const auto r = backoff_retry_transfer(net, s, t, faults);
  ASSERT_TRUE(r.delivered);
  EXPECT_GT(r.attempts, 1u);
}

TEST(Resilient, JitteredWaitStaysInTheHalfJitterWindow) {
  util::Xoshiro256 rng{123};
  EXPECT_EQ(jittered_wait(0, rng), 0u);
  for (const std::uint64_t wait : {1ULL, 2ULL, 7ULL, 64ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t jittered = jittered_wait(wait, rng);
      EXPECT_GE(jittered, wait - wait / 2);
      EXPECT_LE(jittered, wait);
    }
  }
}

TEST(Resilient, JitterSeedZeroKeepsTheHistoricalSchedule) {
  // jitter_seed = 0 is the compatibility contract: the attempt schedule is
  // bit-identical to what the un-jittered protocol always produced, so old
  // callers (and old experiment numbers) are untouched by the new knob.
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  core::FaultModel faults;
  for (const auto& path : container.paths) {
    faults.fail_node(path[path.size() / 2], /*fail_time=*/0,
                     /*repair_time=*/16);
  }
  const auto legacy = backoff_retry_transfer(net, s, t, faults);
  const auto pinned = backoff_retry_transfer(net, s, t, faults,
                                             /*max_attempts=*/8,
                                             /*jitter_seed=*/0);
  EXPECT_EQ(legacy.delivered, pinned.delivered);
  EXPECT_EQ(legacy.completion_cycles, pinned.completion_cycles);
  EXPECT_EQ(legacy.attempts, pinned.attempts);
  EXPECT_EQ(legacy.wasted_transmissions, pinned.wasted_transmissions);
}

TEST(Resilient, JitteredBackoffIsAPureFunctionOfTheSeed) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(13, 2);
  const auto container = core::node_disjoint_paths(net, s, t);
  core::FaultModel faults;
  for (const auto& path : container.paths) {
    faults.fail_node(path[path.size() / 2], /*fail_time=*/0,
                     /*repair_time=*/16);
  }
  const auto plain = backoff_retry_transfer(net, s, t, faults);
  const auto a = backoff_retry_transfer(net, s, t, faults,
                                        /*max_attempts=*/8,
                                        /*jitter_seed=*/42);
  const auto b = backoff_retry_transfer(net, s, t, faults,
                                        /*max_attempts=*/8,
                                        /*jitter_seed=*/42);
  // Same seed, same schedule — cycle for cycle.
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.wasted_transmissions, b.wasted_transmissions);
  // Half-jitter only ever shortens waits, so the jittered sender can't
  // finish later than the deterministic one — and the outage window still
  // gates success.
  ASSERT_TRUE(a.delivered);
  EXPECT_LE(a.completion_cycles, plain.completion_cycles);
  EXPECT_GE(a.completion_cycles, 16u);
}

TEST(Resilient, DispersalFasterThanSerialUnderFaults) {
  // When the first path is cut, serial retry pays a timeout; dispersal
  // completes in one shot.
  const HhcTopology net{3};
  const Node s = net.encode(3, 0);
  const Node t = net.encode(99, 5);
  const auto container = core::node_disjoint_paths(net, s, t);
  FaultModel faults;
  faults.fail_node(container.paths[0][1]);
  const auto serial = serial_retry_transfer(net, s, t, faults);
  const auto disp = dispersal_transfer(net, s, t, faults);
  ASSERT_TRUE(serial.delivered);
  ASSERT_TRUE(disp.delivered);
  EXPECT_LT(disp.completion_cycles, serial.completion_cycles);
}

}  // namespace
}  // namespace hhc::sim
