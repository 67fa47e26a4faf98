// Single-path routing in the hierarchical hypercube.
//
// Moving between clusters is only possible through gateway positions, so a
// route is determined by (1) which X-dimensions to flip and in what order,
// and (2) the intra-cluster walks between consecutive gateways. Ordering
// the X-dimensions along the Gray cycle of gateway positions keeps
// consecutive gateways close, which bounds the route length by
// 2^m + k + O(m) — the same argument that yields the HHC diameter bound.
#pragma once

#include <span>
#include <vector>

#include "core/topology.hpp"

namespace hhc::core {

/// A cluster-level route: the sequence of X-dimensions to flip in order.
using ClusterRoute = std::vector<unsigned>;

/// How the differing X-dimensions are cyclically ordered before building
/// routes. kGrayCycle is the algorithm's choice (consecutive gateways stay
/// close inside clusters, bounding total intra-cluster walking by 2^m);
/// kAscending is the naive order kept for the ablation study, where the
/// walking between gateways can reach O(m * 2^m).
enum class DimensionOrdering {
  kGrayCycle,
  kAscending,
};

/// Materializes a cluster-level route into the full node path it traces.
///
/// `exit_walk` is the position walk inside the start cluster, beginning at
/// the source position and ending at the gateway of xdims.front();
/// `entry_walk` is the position walk inside the final cluster, beginning at
/// the gateway of xdims.back() and ending at the destination position.
/// Intermediate clusters are traversed gateway-to-gateway with shortest
/// walks (ascending dimension order). Throws std::invalid_argument on
/// inconsistent inputs. `xdims` must be nonempty.
[[nodiscard]] Path realize_cluster_route(const HhcTopology& net,
                                         std::uint64_t start_cluster,
                                         std::span<const std::uint64_t> exit_walk,
                                         std::span<const unsigned> xdims,
                                         std::span<const std::uint64_t> entry_walk);

/// Constructive s -> t path. Not always a global shortest path (HHC
/// shortest routing embeds a gateway-ordering optimization), but within the
/// 2^m + k + O(m) bound; compared against exact BFS in tests/benchmarks.
[[nodiscard]] Path route(const HhcTopology& net, Node s, Node t);

/// Length (in edges) of the path route() would build, without materializing
/// it. Exact for route(); an upper bound on the true distance. Used as the
/// topology-aware greedy guide by the local-knowledge router.
[[nodiscard]] std::size_t route_length(const HhcTopology& net, Node s, Node t);

/// The set of X-dimensions where the clusters of s and t differ, in the
/// requested cyclic order.
[[nodiscard]] std::vector<unsigned> differing_x_dimensions(
    const HhcTopology& net, Node s, Node t,
    DimensionOrdering ordering = DimensionOrdering::kGrayCycle);

/// Allocation-free variant: fills `out` (cleared first) instead of
/// returning a fresh vector. Produces the identical sequence. The hot
/// construction path calls this with a scratch vector that keeps its
/// capacity across queries.
void differing_x_dimensions_into(const HhcTopology& net, Node s, Node t,
                                 DimensionOrdering ordering,
                                 std::vector<unsigned>& out);

/// Checks that `path` is a simple path from s to t along HHC edges.
[[nodiscard]] bool is_valid_path(const HhcTopology& net, const Path& path,
                                 Node s, Node t);

}  // namespace hhc::core
