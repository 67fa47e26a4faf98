#include <gtest/gtest.h>

#include "core/disjoint.hpp"
#include "core/routing.hpp"
#include "sim/network.hpp"

namespace hhc::sim {
namespace {

using core::HhcTopology;
using core::Node;
using core::Path;

TEST(SimNetwork, SinglePacketLatencyEqualsPathLength) {
  const HhcTopology net{2};
  NetworkSimulator sim{net};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.latency.max, path.size() - 1);
}

TEST(SimNetwork, ZeroLengthRouteDeliversInstantly) {
  const HhcTopology net{2};
  NetworkSimulator sim{net};
  sim.inject({net.encode(3, 1)}, 5);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.latency.max, 0u);
}

TEST(SimNetwork, InjectRejectsInvalidRoute) {
  const HhcTopology net{2};
  NetworkSimulator sim{net};
  EXPECT_THROW(sim.inject({}, 0), std::invalid_argument);
  EXPECT_THROW(sim.inject({net.encode(0, 0), net.encode(5, 3)}, 0),
               std::invalid_argument);
}

TEST(SimNetwork, DisjointPathsDoNotContend) {
  // Packets over node-disjoint paths share no link, so each arrives in
  // exactly its own path length.
  const HhcTopology net{3};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(200, 5);
  const auto container = core::node_disjoint_paths(net, s, t);
  NetworkSimulator sim{net};
  for (const auto& p : container.paths) sim.inject(p, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, container.paths.size());
  EXPECT_EQ(report.latency.max, container.max_length());
  EXPECT_EQ(report.latency.min, container.min_length());
}

TEST(SimNetwork, SharedRouteSerializesOnLinks) {
  // Two packets with the identical route: the second waits one cycle at
  // every hop behind the first, arriving exactly one cycle later.
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  NetworkSimulator sim{net};
  sim.inject(path, 0);
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 2u);
  EXPECT_EQ(report.latency.min, path.size() - 1);
  EXPECT_EQ(report.latency.max, path.size());  // one cycle of queueing
}

TEST(SimNetwork, FaultyNodeLosesPacket) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  core::FaultModel faults;
  faults.fail_node(path[1]);
  NetworkSimulator sim{net};
  sim.set_fault_model(faults);
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.lost, 1u);
}

TEST(SimNetwork, FaultySourceLosesImmediately) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  core::FaultModel faults;
  faults.fail_node(path[0]);
  NetworkSimulator sim{net};
  sim.set_fault_model(faults);
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.lost, 1u);
}

TEST(SimNetwork, ScheduledFaultSparesEarlierTraffic) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  ASSERT_GE(path.size(), 3u);
  // Node path[1] fails far in the future: the packet crosses it first.
  NetworkSimulator sim{net};
  sim.schedule_fault(path[1], 1000);
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 1u);
}

TEST(SimNetwork, ScheduledFaultKillsLaterTraffic) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  NetworkSimulator sim{net};
  sim.schedule_fault(path[1], 0);  // fails immediately
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.lost, 1u);
}

TEST(SimNetwork, MidFlightFailureCutsPacket) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  ASSERT_GE(path.size(), 4u);
  // A node halfway along the route fails exactly when the packet is about
  // to enter it (the packet reaches hop h at cycle h; entering node at
  // index i happens during cycle i-1 -> lost if the node fails at i-1).
  NetworkSimulator sim{net};
  const std::size_t victim = path.size() / 2;
  sim.schedule_fault(path[victim], victim - 1);
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(sim.packets()[0].hop, victim - 1);
}

TEST(SimNetwork, TwoPacketsStraddlingAFailure) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  ASSERT_GE(path.size(), 3u);
  NetworkSimulator sim{net};
  // Early packet passes node path[1] during cycle 0; it fails at cycle 2,
  // so the late packet (injected at 2) is lost there.
  sim.schedule_fault(path[1], 2);
  sim.inject(path, 0);
  sim.inject(path, 2);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.lost, 1u);
}

TEST(SimNetwork, LinkFaultLosesPacketButNodesStayUp) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  ASSERT_GE(path.size(), 3u);
  NetworkSimulator sim{net};
  sim.schedule_link_fault(path[1], path[2]);
  sim.inject(path, 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.lost, 1u);
  // The packet made it across the first (healthy) link before dying.
  EXPECT_EQ(sim.packets()[0].hop, 1u);
}

TEST(SimNetwork, LinkFaultOnlyAffectsRoutesUsingIt) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(15, 3);
  const auto container = core::node_disjoint_paths(net, s, t);
  ASSERT_GE(container.paths.size(), 2u);
  NetworkSimulator sim{net};
  // Kill one link of path 0; path 1 is node-disjoint so it cannot use it.
  sim.schedule_link_fault(container.paths[0][0], container.paths[0][1]);
  sim.inject(container.paths[0], 0);
  sim.inject(container.paths[1], 0);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.lost, 1u);
}

TEST(SimNetwork, ScheduleLinkFaultRejectsNonEdges) {
  const HhcTopology net{2};
  NetworkSimulator sim{net};
  EXPECT_THROW(sim.schedule_link_fault(net.encode(0, 0), net.encode(5, 3)),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_link_fault(3, 3), std::invalid_argument);
}

TEST(SimNetwork, RepairedNodeDeliversLaterTraffic) {
  // The acceptance scenario: a packet sent during the outage is lost, a
  // packet sent after the scheduled repair goes through on the same route.
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  NetworkSimulator sim{net};
  sim.schedule_fault(path[1], /*time=*/0, /*repair=*/50);
  sim.inject(path, 0);    // lost entering the dead node
  sim.inject(path, 100);  // injected well after repair
  const auto report = sim.run();
  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_FALSE(sim.packets()[0].delivered);
  EXPECT_TRUE(sim.packets()[1].delivered);
}

TEST(SimNetwork, RepairedLinkDeliversLaterTraffic) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  ASSERT_GE(path.size(), 3u);
  NetworkSimulator sim{net};
  sim.schedule_link_fault(path[1], path[2], /*time=*/0, /*repair=*/40);
  sim.inject(path, 0);   // hits the dead link at cycle 1
  sim.inject(path, 60);  // link already repaired
  const auto report = sim.run();
  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(report.delivered, 1u);
}

TEST(SimNetwork, FaultModelDrivesTransientOutage) {
  // Same scenario expressed through set_fault_model directly.
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  core::FaultModel faults;
  faults.fail_node(path[1], /*fail_time=*/0, /*repair_time=*/30);
  NetworkSimulator sim{net};
  sim.set_fault_model(faults);
  sim.inject(path, 0);
  sim.inject(path, 30);  // the half-open window has just closed
  const auto report = sim.run();
  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(report.delivered, 1u);
}

TEST(SimNetwork, InjectionTimeDelaysStart) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  NetworkSimulator sim{net};
  sim.inject(path, 10);
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, 1u);
  // Latency excludes injection delay by definition.
  EXPECT_EQ(report.latency.max, path.size() - 1);
  EXPECT_GE(report.cycles, 10u + path.size() - 1);
}

TEST(SimNetwork, HorizonStrandsUndeliveredPackets) {
  const HhcTopology net{2};
  const auto path = core::route(net, net.encode(0, 0), net.encode(15, 3));
  NetworkSimulator sim{net};
  sim.inject(path, 0);
  const auto report = sim.run(/*max_cycles=*/1);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.stranded, 1u);
}

TEST(SimNetwork, ConservationUnderRandomFaultsAndLoads) {
  // Fuzz: every injected packet must be accounted for exactly once, for
  // any seed, fault count, and horizon.
  const HhcTopology net{2};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Xoshiro256 rng{seed};
    core::FaultModel faults;
    for (int f = 0; f < 5; ++f) faults.fail_node(rng.below(net.node_count()));
    NetworkSimulator sim{net};
    sim.set_fault_model(faults);
    std::size_t injected = 0;
    for (int p = 0; p < 200; ++p) {
      const Node s = rng.below(net.node_count());
      const Node t = rng.below(net.node_count());
      if (s == t || faults.node_faulty_at(s) || faults.node_faulty_at(t)) {
        continue;
      }
      sim.inject(core::route(net, s, t), rng.below(20));
      ++injected;
    }
    const auto tight = sim.run(/*max_cycles=*/5);
    EXPECT_EQ(tight.delivered + tight.lost + tight.stranded, injected)
        << "seed=" << seed;
  }
}

TEST(SimNetwork, ManyPacketsAllRetire) {
  const HhcTopology net{2};
  NetworkSimulator sim{net};
  std::size_t injected = 0;
  for (Node s = 0; s < net.node_count(); s += 7) {
    for (Node t = 0; t < net.node_count(); t += 11) {
      if (s == t) continue;
      sim.inject(core::route(net, s, t), s % 5);
      ++injected;
    }
  }
  const auto report = sim.run();
  EXPECT_EQ(report.delivered, injected);
  EXPECT_EQ(report.stranded, 0u);
}

}  // namespace
}  // namespace hhc::sim
