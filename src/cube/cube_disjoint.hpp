// Classic constructive node-disjoint paths in the hypercube Q_n.
//
// For any distinct s, t with Hamming distance k, Q_n contains n internally
// vertex-disjoint s-t paths: k "rotation" paths of length k obtained by
// flipping the differing dimensions starting at each cyclic offset, plus
// n-k "detour" paths of length k+2 that first step out along an agreeing
// dimension e, flip all differing dimensions, and step back across e.
//
// This is both a reference implementation for Q_n itself and the template
// the HHC cluster-level construction generalizes.
#pragma once

#include <cstddef>
#include <vector>

#include "cube/hypercube.hpp"

namespace hhc::cube {

/// A route written as the sequence of dimensions to flip.
using DimensionSequence = std::vector<unsigned>;

/// The rotation/detour dimension sequences for s -> t (s != t), in a fixed
/// deterministic order: all k rotations (by cyclic offset), then detours by
/// ascending detour dimension. `count` <= n sequences are produced.
[[nodiscard]] std::vector<DimensionSequence> disjoint_route_sequences(
    const Hypercube& q, CubeNode s, CubeNode t, std::size_t count);

/// `count` internally vertex-disjoint s-t paths (count <= n), each given as
/// the full node sequence including both endpoints.
[[nodiscard]] std::vector<CubePath> disjoint_paths(const Hypercube& q,
                                                   CubeNode s, CubeNode t,
                                                   std::size_t count);

/// Materializes a dimension sequence into the node path it traces from `s`.
[[nodiscard]] CubePath realize_route(const Hypercube& q, CubeNode s,
                                     const DimensionSequence& route);

}  // namespace hhc::cube
