#include <gtest/gtest.h>

#include <stdexcept>

#include "core/fault_model.hpp"

namespace hhc::core {
namespace {

TEST(FaultModel, EmptyModelReportsNothing) {
  const FaultModel model;
  EXPECT_TRUE(model.empty());
  EXPECT_FALSE(model.node_faulty_at(0));
  EXPECT_FALSE(model.link_faulty_at(0, 1));
  EXPECT_TRUE(model.edge_usable_at(0, 1));
  EXPECT_EQ(model.fault_count(), 0u);
}

TEST(FaultModel, PermanentNodeFaultIsActiveForever) {
  FaultModel model;
  model.fail_node(7);
  EXPECT_TRUE(model.node_faulty_at(7));
  EXPECT_TRUE(model.node_faulty_at(7, 1u << 30));
  EXPECT_FALSE(model.node_faulty_at(8));
  EXPECT_FALSE(model.edge_usable_at(7, 8));
  EXPECT_FALSE(model.has_transient());
  EXPECT_EQ(model.node_fault_count(), 1u);
  EXPECT_EQ(model.link_fault_count(), 0u);
}

TEST(FaultModel, TransientWindowIsHalfOpen) {
  FaultModel model;
  model.fail_node(3, /*fail_time=*/10, /*repair_time=*/20);
  EXPECT_FALSE(model.node_faulty_at(3, 9));
  EXPECT_TRUE(model.node_faulty_at(3, 10));
  EXPECT_TRUE(model.node_faulty_at(3, 19));
  EXPECT_FALSE(model.node_faulty_at(3, 20));  // repaired
  EXPECT_TRUE(model.has_transient());
  EXPECT_EQ(model.node_fault_count(15), 1u);
  EXPECT_EQ(model.node_fault_count(25), 0u);
}

TEST(FaultModel, RepeatedOutagesOnOneNodeAccumulate) {
  FaultModel model;
  model.fail_node(5, 0, 10);
  model.fail_node(5, 30, 40);
  EXPECT_TRUE(model.node_faulty_at(5, 5));
  EXPECT_FALSE(model.node_faulty_at(5, 20));
  EXPECT_TRUE(model.node_faulty_at(5, 35));
  EXPECT_EQ(model.node_fault_count(20), 0u);
}

TEST(FaultModel, LinkFaultIsUndirectedAndLeavesNodesUsable) {
  FaultModel model;
  model.fail_link(4, 12);
  EXPECT_TRUE(model.link_faulty_at(4, 12));
  EXPECT_TRUE(model.link_faulty_at(12, 4));  // normalized
  EXPECT_FALSE(model.node_faulty_at(4));
  EXPECT_FALSE(model.node_faulty_at(12));
  EXPECT_FALSE(model.edge_usable_at(4, 12));
  EXPECT_TRUE(model.edge_usable_at(4, 5));
  EXPECT_EQ(model.link_fault_count(), 1u);
}

TEST(FaultModel, TransientLinkRepairs) {
  FaultModel model;
  model.fail_link(0, 1, 5, 8);
  EXPECT_TRUE(model.edge_usable_at(0, 1, 4));
  EXPECT_FALSE(model.edge_usable_at(0, 1, 6));
  EXPECT_TRUE(model.edge_usable_at(0, 1, 8));
}

TEST(FaultModel, RejectsDegenerateInput) {
  FaultModel model;
  EXPECT_THROW(model.fail_link(3, 3), std::invalid_argument);
  EXPECT_THROW(model.fail_node(1, 10, 10), std::invalid_argument);
  EXPECT_THROW(model.fail_link(0, 1, 10, 5), std::invalid_argument);
}

TEST(FaultModel, NodeFaultsRespectTime) {
  FaultModel model;
  model.fail_node(1);          // permanent
  model.fail_node(2, 10, 20);  // transient
  EXPECT_TRUE(model.node_faulty_at(1, 0));
  EXPECT_FALSE(model.node_faulty_at(2, 0));
  EXPECT_TRUE(model.node_faulty_at(1, 15));
  EXPECT_TRUE(model.node_faulty_at(2, 15));
  EXPECT_TRUE(model.node_faulty_at(1, 25));
  EXPECT_FALSE(model.node_faulty_at(2, 25));
}

TEST(FaultModel, RandomHonorsSpecCounts) {
  const HhcTopology net{2};
  util::Xoshiro256 rng{11};
  FaultModel::RandomSpec spec;
  spec.node_faults = 4;
  spec.internal_link_faults = 3;
  spec.external_link_faults = 2;
  const Node s = 0;
  const Node t = net.node_count() - 1;
  const auto model = FaultModel::random(net, spec, s, t, rng);
  EXPECT_EQ(model.node_fault_count(), 4u);
  EXPECT_EQ(model.link_fault_count(), 5u);
  EXPECT_FALSE(model.node_faulty_at(s));
  EXPECT_FALSE(model.node_faulty_at(t));
}

TEST(FaultModel, RandomLinkFaultsLieOnRealEdges) {
  const HhcTopology net{2};
  util::Xoshiro256 rng{13};
  FaultModel::RandomSpec spec;
  spec.internal_link_faults = 10;
  spec.external_link_faults = 10;
  const auto model = FaultModel::random(net, spec, 0, 1, rng);
  // Every sampled link must be an edge of the topology: count the faulty
  // ones among real edges and confirm all 20 are found.
  std::size_t found = 0;
  for (Node v = 0; v < net.node_count(); ++v) {
    for (const Node u : net.neighbors(v)) {
      if (u > v && model.link_faulty_at(v, u)) ++found;
    }
  }
  EXPECT_EQ(found, 20u);
}

TEST(FaultModel, RandomAppliesTransientWindow) {
  const HhcTopology net{2};
  util::Xoshiro256 rng{17};
  FaultModel::RandomSpec spec;
  spec.node_faults = 3;
  spec.fail_time = 100;
  spec.repair_time = 200;
  const auto model = FaultModel::random(net, spec, 0, 1, rng);
  EXPECT_EQ(model.node_fault_count(50), 0u);
  EXPECT_EQ(model.node_fault_count(150), 3u);
  EXPECT_EQ(model.node_fault_count(250), 0u);
  EXPECT_TRUE(model.has_transient());
}

TEST(FaultModel, RandomCanExhaustEveryPopulation) {
  const HhcTopology net{1};  // 8 nodes, 4 internal links, 4 external links
  util::Xoshiro256 rng{19};
  FaultModel::RandomSpec spec;
  spec.node_faults = net.node_count() - 2;
  spec.internal_link_faults = net.node_count() * net.m() / 2;
  spec.external_link_faults = net.node_count() / 2;
  const auto model = FaultModel::random(net, spec, 0, 1, rng);
  EXPECT_EQ(model.node_fault_count(), net.node_count() - 2);
  EXPECT_EQ(model.link_fault_count(),
            net.node_count() * net.m() / 2 + net.node_count() / 2);
  // Every node fault lies in range and off the endpoints.
  for (Node v = 0; v < net.node_count(); ++v) {
    EXPECT_EQ(model.node_faulty_at(v), v != 0 && v != 1) << v;
  }
  // s == t spares only that one node, so node faults may reach N - 1.
  FaultModel::RandomSpec all_but_one;
  all_but_one.node_faults = net.node_count() - 1;
  const auto loop = FaultModel::random(net, all_but_one, 3, 3, rng);
  EXPECT_EQ(loop.node_fault_count(), net.node_count() - 1);
  EXPECT_FALSE(loop.node_faulty_at(3));
}

TEST(FaultModel, RandomRejectsOverRequests) {
  const HhcTopology net{1};
  util::Xoshiro256 rng{23};
  FaultModel::RandomSpec nodes;
  nodes.node_faults = net.node_count() - 1;  // population is N - 2
  EXPECT_THROW((void)FaultModel::random(net, nodes, 0, 1, rng),
               std::invalid_argument);
  nodes.node_faults = net.node_count();  // s == t: population is N - 1
  EXPECT_THROW((void)FaultModel::random(net, nodes, 3, 3, rng),
               std::invalid_argument);
  FaultModel::RandomSpec internal;
  internal.internal_link_faults = net.node_count() * net.m() / 2 + 1;
  EXPECT_THROW((void)FaultModel::random(net, internal, 0, 1, rng),
               std::invalid_argument);
  FaultModel::RandomSpec external;
  external.external_link_faults = net.node_count() / 2 + 1;
  EXPECT_THROW((void)FaultModel::random(net, external, 0, 1, rng),
               std::invalid_argument);
}

TEST(FaultModel, RandomIsDeterministicInSeed) {
  const HhcTopology net{2};
  FaultModel::RandomSpec spec;
  spec.node_faults = 5;
  spec.internal_link_faults = 2;
  util::Xoshiro256 rng_a{42};
  util::Xoshiro256 rng_b{42};
  const auto a = FaultModel::random(net, spec, 0, 1, rng_a);
  const auto b = FaultModel::random(net, spec, 0, 1, rng_b);
  for (Node v = 0; v < net.node_count(); ++v) {
    EXPECT_EQ(a.node_faulty_at(v), b.node_faulty_at(v));
    for (const Node u : net.neighbors(v)) {
      EXPECT_EQ(a.link_faulty_at(v, u), b.link_faulty_at(v, u));
    }
  }
}

}  // namespace
}  // namespace hhc::core
