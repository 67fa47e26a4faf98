// Per-thread workspace for the allocation-free construction hot path.
//
// A single node_disjoint_paths query needs: the differing-dimension scan,
// the selected cluster routes, two endpoint fans (max flow on the cluster
// graph), and m+1 realized paths. ConstructionScratch owns warm storage for
// every one of those pieces; a query clears the buffers, overwrites them in
// place, and — once the scratch has seen one query of each shape — touches
// the heap exactly zero times (tests/test_allocation.cpp).
//
// The endpoint fans are memoized. A fan is a pure function of (m, apex,
// endpoint set), and for m <= 4 that key space is small (2^m * C(2^m-1, m)
// keys: 280 at m = 3, 21,840 at m = 4), so the scratch keeps one table per
// m holding every fan it has solved. The table is allocated whole on the
// first construction at that m; a lookup that misses fills its entry from
// the FanWorkspace below, so neither hits nor fills allocate. At m = 5 the
// key space is 5.4M and there is no table: every fan is solved. DESIGN.md §2
// gives the argument that the memoized fans are bit-identical.
//
// The m+1 paths are written back to back into one FlatContainer, the same
// nodes + offsets layout ContainerCache publishes. Results are spans into
// it (PathRef); they stay valid until the next query on the same scratch.
// Copy (materialize) before reusing it.
// Not thread-safe; batch drivers use tls_construction_scratch(), which
// hands each thread its own instance.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/topology.hpp"
#include "graph/adjacency_list.hpp"
#include "graph/vertex_disjoint.hpp"

namespace hhc::core {

/// A borrowed path: a span of nodes into scratch- or cache-owned storage.
using PathRef = std::span<const Node>;

/// A disjoint-path container flattened into two arrays: `nodes` holds every
/// path back to back, `offsets` (path_count + 1 entries) delimits them.
/// The scratch rewrites its own each query; one published into
/// ContainerCache's store is immutable.
struct FlatContainer {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> offsets;  // paths[i] = nodes[offsets[i], offsets[i+1])
};

class ConstructionScratch {
 public:
  ConstructionScratch() = default;
  ConstructionScratch(const ConstructionScratch&) = delete;
  ConstructionScratch& operator=(const ConstructionScratch&) = delete;

  /// The realized paths of the current query. Cleared by each query; its
  /// vectors keep their capacity, so a warm scratch never reallocates them.
  FlatContainer flat;

  /// Endpoint-fan solvers (exit fan / same-cluster paths, entry fan). They
  /// fill the fan table and serve every fan at m > kMaxTabledFanM.
  graph::FanWorkspace exit_fan;
  graph::FanWorkspace entry_fan;

  /// The largest m whose fans are memoized.
  static constexpr unsigned kMaxTabledFanM = 4;

  /// The explicit Q_m cluster graph, built once per m and cached (the
  /// construction solves every fan on this same <= 32-node graph).
  [[nodiscard]] const graph::AdjacencyList& cluster_graph(unsigned m);

  /// The exit fan of a different-cluster construction, read through the fan
  /// table: result[i] runs s .. targets[i] in Q_m, vertex for vertex what
  /// exit_fan.fan(cluster_graph(m), s, targets) returns. Route selection
  /// always hands over exactly m distinct targets, none equal to s; any
  /// other count throws std::logic_error. Valid until the next exit_fans
  /// call on this scratch.
  [[nodiscard]] std::span<const graph::VertexPath> exit_fans(
      unsigned m, graph::Vertex s, std::span<const graph::Vertex> targets);

  /// The entry fan, likewise: result[i] runs sources[i] .. t, vertex for
  /// vertex what entry_fan.reverse_fan(cluster_graph(m), sources, t)
  /// returns. Valid until the next entry_fans call on this scratch.
  [[nodiscard]] std::span<const graph::VertexPath> entry_fans(
      unsigned m, std::span<const graph::Vertex> sources, graph::Vertex t);

  // --- reused query-local buffers (internal to the construction) ---------
  std::vector<unsigned> dims;             // differing X-dimensions
  std::vector<unsigned> route_words;      // flattened selected routes
  std::vector<std::pair<std::uint32_t, std::uint32_t>> route_spans;
  std::vector<graph::Vertex> exit_targets;
  std::vector<graph::Vertex> entry_sources;
  std::vector<PathRef> refs;              // the m+1 spans into `flat`

  struct RouteCandidate {
    std::size_t estimate;
    bool is_rotation;
    std::size_t index;  // rotation offset or detour dimension
  };
  std::vector<RouteCandidate> candidates;  // kBalanced ranking buffer

 private:
  std::span<const graph::VertexPath> memo_fan(
      unsigned m, graph::Vertex apex, std::span<const graph::Vertex> ends,
      bool reversed, graph::FanWorkspace& solver,
      std::vector<graph::VertexPath>& walks);

  std::array<std::optional<graph::AdjacencyList>, 7> cluster_graphs_;
  // fan_tables_[m]: one fixed-stride record per (apex, endpoint set), empty
  // until the first fan at m. See scratch.cpp for the record layout.
  std::array<std::vector<std::uint8_t>, kMaxTabledFanM + 1> fan_tables_;
  std::vector<graph::VertexPath> exit_walks_;   // decoded exit fan
  std::vector<graph::VertexPath> entry_walks_;  // decoded entry fan
};

/// This thread's construction scratch (function-local thread_local). The
/// legacy copying API and the batch query engine both route through it, so
/// repeated queries on one thread share warm storage automatically.
[[nodiscard]] ConstructionScratch& tls_construction_scratch();

}  // namespace hhc::core
