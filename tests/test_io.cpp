#include <gtest/gtest.h>

#include "core/io.hpp"

namespace hhc::core {
namespace {

TEST(Io, FormatNodeBinaryFields) {
  const HhcTopology net{2};
  EXPECT_EQ(format_node(net, net.encode(0b0110, 0b01)), "(0110,01)");
  EXPECT_EQ(format_node(net, net.encode(0, 0)), "(0000,00)");
}

TEST(Io, FormatNodeRejectsBad) {
  const HhcTopology net{2};
  EXPECT_THROW((void)format_node(net, net.node_count()),
               std::invalid_argument);
}

TEST(Io, FormatPathJoinsWithArrows) {
  const HhcTopology net{2};
  const Path p{net.encode(0, 0), net.encode(0, 1)};
  EXPECT_EQ(format_path(net, p), "(0000,00) -> (0000,01)");
  EXPECT_EQ(format_path(net, {}), "");
}

TEST(Io, ToDotContainsAllNodesAndStructure) {
  const HhcTopology net{1};
  const auto dot = to_dot(net);
  EXPECT_NE(dot.find("graph hhc"), std::string::npos);
  for (Node v = 0; v < net.node_count(); ++v) {
    std::string id{"n"};
    id += std::to_string(v);
    EXPECT_NE(dot.find(id), std::string::npos);
  }
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // external edges
}

TEST(Io, ToDotEdgeCountMatchesTopology) {
  const HhcTopology net{2};
  const auto dot = to_dot(net);
  std::size_t edges = 0;
  for (std::size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, net.node_count() * net.degree() / 2);
}

TEST(Io, ToDotRejectsLargeM) {
  EXPECT_THROW((void)to_dot(HhcTopology{3}), std::invalid_argument);
}

TEST(Io, ContainerDotColorsEachPath) {
  const HhcTopology net{2};
  const Node s = net.encode(0, 0);
  const Node t = net.encode(9, 2);
  const auto set = node_disjoint_paths(net, s, t);
  const auto dot = container_to_dot(net, set, s, t);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  for (std::size_t i = 1; i <= set.paths.size(); ++i) {
    EXPECT_NE(dot.find("color=" + std::to_string(i)), std::string::npos);
  }
  // Every hop appears as an undirected edge line.
  std::size_t edges = 0;
  for (std::size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++edges;
  }
  std::size_t expected = 0;
  for (const auto& p : set.paths) expected += p.size() - 1;
  EXPECT_EQ(edges, expected);
}

TEST(Io, ContainerDotWorksAtLargeScale) {
  const HhcTopology net{5};  // implicit-only scale still renders containers
  const Node s = 1;
  const Node t = net.node_count() - 2;
  const auto set = node_disjoint_paths(net, s, t);
  const auto dot = container_to_dot(net, set, s, t);
  EXPECT_NE(dot.find("graph container"), std::string::npos);
}

TEST(Io, CsvRowJoinsPlainCells) {
  EXPECT_EQ(csv_row({"a", "b", "c"}), "a,b,c");
  EXPECT_EQ(csv_row({}), "");
  EXPECT_EQ(csv_row({"solo"}), "solo");
}

TEST(Io, CsvRowQuotesSpecialCells) {
  EXPECT_EQ(csv_row({"a,b", "c"}), "\"a,b\",c");
  EXPECT_EQ(csv_row({"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_row({"line\nbreak"}), "\"line\nbreak\"");
}

TEST(Io, JsonWriterEmitsNestedDocument) {
  JsonWriter w;
  w.begin_object()
      .key("name")
      .value("hhc")
      .key("m")
      .value(3)
      .key("ok")
      .value(true)
      .key("rate")
      .value(0.5)
      .key("rows")
      .begin_array()
      .value(std::uint64_t{1})
      .value(std::uint64_t{2})
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"hhc\",\"m\":3,\"ok\":true,\"rate\":0.5,"
            "\"rows\":[1,2]}");
}

TEST(Io, JsonWriterEscapesStrings) {
  JsonWriter w;
  w.begin_array().value("quote\" slash\\ tab\t").end_array();
  EXPECT_EQ(w.str(), "[\"quote\\\" slash\\\\ tab\\t\"]");
}

TEST(Io, JsonWriterRejectsMisuse) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW((void)w.str(), std::logic_error);  // unterminated document
  }
  {
    JsonWriter w;
    w.begin_object().key("k");
    EXPECT_THROW(w.end_object(), std::logic_error);  // dangling key
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
}

}  // namespace
}  // namespace hhc::core
