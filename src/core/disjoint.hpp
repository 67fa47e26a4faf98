// Construction of m+1 node-disjoint paths between any two nodes of the
// hierarchical hypercube — the paper's primary contribution.
//
// Overview of the algorithm (full derivation in DESIGN.md §2):
//
//   Let s = (Xs, Ys), t = (Xt, Yt), a = dec(Ys), b = dec(Yt), and let D be
//   the set of X-dimensions where Xs and Xt differ (k = |D|).
//
//   * Crossing X-dimension j requires standing at gateway position j, so
//     exactly one of the m+1 paths leaves s over its external edge (the path
//     whose first X-dimension is a) and exactly one enters t over its
//     external edge (last X-dimension b).
//   * Candidate cluster-level routes: the k *rotations* of D in a fixed
//     cyclic (Gray) order, and *detours* e·D·e for e outside D. Any two
//     such routes visit disjoint sets of intermediate clusters, so selected
//     routes can only meet inside the endpoint clusters.
//   * Select m+1 routes with pairwise-distinct first and last dimensions,
//     including the mandatory first = a and last = b routes; realize the
//     endpoint-cluster segments as exact vertex-disjoint fans (max flow on
//     the <= 32-node cluster), and intermediate clusters as private
//     gateway-to-gateway walks.
//   * A fan depends only on (m, apex, endpoint set), and for m <= 4 there
//     are at most 21,840 such keys, so the scratch memoizes them: each
//     thread solves a fan once and later constructions look it up
//     (bit-identical; DESIGN.md §2, tests/test_fan_table.cpp).
//
//   When Xs = Xt the m+1 paths are the m disjoint Ys-Yt paths inside the
//   cluster plus one external detour through three neighboring clusters.
//
// The result is exactly m+1 = connectivity paths; tests verify the claim
// exhaustively for m <= 2 and against a max-flow baseline for m <= 4.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/routing.hpp"
#include "core/scratch.hpp"
#include "core/topology.hpp"

namespace hhc::core {

/// A complete system of node-disjoint s-t paths.
struct DisjointPathSet {
  std::vector<Path> paths;  // each path runs s .. t inclusive

  /// Length (in edges) of the longest path — the container length; its
  /// maximum over all node pairs upper-bounds the (m+1)-wide diameter.
  [[nodiscard]] std::size_t max_length() const noexcept;
  [[nodiscard]] std::size_t min_length() const noexcept;
  [[nodiscard]] double average_length() const noexcept;
};

/// A borrowed view of a disjoint-path system: spans into scratch-owned
/// storage, valid until the next query on (or destruction of) the scratch
/// that produced it. materialize() deep-copies into an owning set.
struct DisjointPathSetRef {
  std::span<const PathRef> paths;

  [[nodiscard]] std::size_t max_length() const noexcept;
  [[nodiscard]] std::size_t min_length() const noexcept;
  [[nodiscard]] double average_length() const noexcept;
  [[nodiscard]] DisjointPathSet materialize() const;
};

/// How the non-mandatory cluster routes are chosen. kCanonical keeps the
/// paper-style deterministic fill (rotations in offset order, then detours
/// ascending); kBalanced ranks all remaining candidates by their estimated
/// realized length and takes the shortest — same disjointness guarantee,
/// shorter containers (ablation A2 quantifies the gap).
enum class RouteSelectionPolicy {
  kCanonical,
  kBalanced,
};

/// Knobs of the construction; the defaults are the published algorithm.
/// node_disjoint_paths and core::OrbitTable take this struct (designated
/// initializers cover the "override one knob" case); the other variants
/// serve the A1/A2 ablations. The served path (ContainerCache,
/// fault::AdaptiveRouter, query::PathService) builds the defaults only.
struct ConstructionOptions {
  DimensionOrdering ordering = DimensionOrdering::kGrayCycle;
  RouteSelectionPolicy selection = RouteSelectionPolicy::kCanonical;

  bool operator==(const ConstructionOptions&) const = default;
};

/// Constructs m+1 node-disjoint paths from s to t (s != t).
/// Deterministic; O(m+1) paths of length <= 2^m + k + O(m) each, built in
/// time linear in the total output size (the endpoint fans run max flow on
/// a 2^m-node cluster, a constant for fixed m, and at m <= 4 only the first
/// time a thread meets that fan).
[[nodiscard]] DisjointPathSet node_disjoint_paths(
    const HhcTopology& net, Node s, Node t, ConstructionOptions options = {});

/// Allocation-free variant: builds the identical m+1 paths (bit-for-bit —
/// asserted by the differential suite) into `scratch.flat`, returning
/// borrowed spans into it. Each call overwrites the buffer, so at most one
/// live result per scratch; with a warm scratch the steady state performs
/// zero heap allocations.
/// The copying overload above is exactly this on the thread-local scratch
/// followed by materialize().
[[nodiscard]] DisjointPathSetRef node_disjoint_paths(
    const HhcTopology& net, Node s, Node t, ConstructionOptions options,
    ConstructionScratch& scratch);

/// The cluster-level routes (X-dimension sequences) the construction picks;
/// exposed for tests, ablations, and the routing-structure example.
/// Empty when s and t share a cluster (no external route is required,
/// except the implicit detour added during realization).
[[nodiscard]] std::vector<ClusterRoute> select_cluster_routes(
    const HhcTopology& net, Node s, Node t);

/// Full verification: exactly m+1 paths, each a simple s-t path along HHC
/// edges, pairwise vertex-disjoint except at s and t. On failure `why`
/// (if non-null) receives a human-readable reason.
[[nodiscard]] bool verify_disjoint_path_set(const HhcTopology& net,
                                            const DisjointPathSet& set, Node s,
                                            Node t, std::string* why = nullptr);

}  // namespace hhc::core
