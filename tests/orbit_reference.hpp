// A slow, table-free reference for core::OrbitTable, shared by the tests
// that check what the cache and the service answer.
//
// It enumerates all 2^m * m! maps (X, Y) -> (X with bit j moved to
// σ(j) ^ c, σ(Y) ^ c) with bit loops, after translating by Xs, and keeps
// the smallest image of t among the maps that send s to node 0. Ties go to
// the first σ in lexicographic order, the rule OrbitTable documents. The
// expected answer for (s, t) is the representative's construction mapped
// back node by node through the inverse of the chosen map. At m = 5, which
// the orbit table does not cover, the expected answer is the construction
// itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/disjoint.hpp"
#include "core/orbit_table.hpp"
#include "core/topology.hpp"

namespace hhc::orbit_reference {

using core::HhcTopology;
using core::Node;

/// Translation by `xs`, then the (σ, c) map.
struct OrbitMap {
  std::vector<unsigned> sigma;  // sigma[i] = image of Y-bit i
  std::uint64_t c = 0;
  std::uint64_t xs = 0;
};

/// The m! permutations of {0, .., m-1} in lexicographic order.
inline std::vector<std::vector<unsigned>> permutations(unsigned m) {
  std::vector<unsigned> sigma(m);
  std::iota(sigma.begin(), sigma.end(), 0U);
  std::vector<std::vector<unsigned>> all;
  do {
    all.push_back(sigma);
  } while (std::next_permutation(sigma.begin(), sigma.end()));
  return all;
}

/// σ acting on the bits of an m-bit index.
inline std::uint64_t permute_bits(const std::vector<unsigned>& sigma,
                                  std::uint64_t j) {
  std::uint64_t image = 0;
  for (unsigned i = 0; i < sigma.size(); ++i) {
    if ((j >> i) & 1U) image |= std::uint64_t{1} << sigma[i];
  }
  return image;
}

inline Node apply(const HhcTopology& net, const OrbitMap& g, Node v) {
  const std::uint64_t x = net.cluster_of(v) ^ g.xs;
  std::uint64_t image_x = 0;
  for (std::uint64_t j = 0; j < net.cluster_dimensions(); ++j) {
    if ((x >> j) & 1U) {
      image_x |= std::uint64_t{1} << (permute_bits(g.sigma, j) ^ g.c);
    }
  }
  return net.encode(image_x, permute_bits(g.sigma, net.position_of(v)) ^ g.c);
}

inline Node apply_inverse(const HhcTopology& net, const OrbitMap& g, Node v) {
  const std::uint64_t image_x = net.cluster_of(v);
  std::uint64_t x = 0;
  for (std::uint64_t j = 0; j < net.cluster_dimensions(); ++j) {
    if ((image_x >> (permute_bits(g.sigma, j) ^ g.c)) & 1U) {
      x |= std::uint64_t{1} << j;
    }
  }
  const std::uint64_t moved = net.position_of(v) ^ g.c;
  std::uint64_t y = 0;
  for (unsigned i = 0; i < g.sigma.size(); ++i) {
    if ((moved >> g.sigma[i]) & 1U) y |= std::uint64_t{1} << i;
  }
  return net.encode(x ^ g.xs, y);
}

/// `set` with every node mapped through the inverse of `g`: apply_inverse
/// with the X-bit destinations worked out once for the whole container.
inline core::DisjointPathSet inverse_image(const HhcTopology& net,
                                           const OrbitMap& g,
                                           core::DisjointPathSet set) {
  std::vector<unsigned> to(net.cluster_dimensions());  // bit j lands on to[j]
  for (std::uint64_t j = 0; j < to.size(); ++j) {
    to[j] = static_cast<unsigned>(permute_bits(g.sigma, j) ^ g.c);
  }
  for (core::Path& path : set.paths) {
    for (Node& v : path) {
      const std::uint64_t image_x = net.cluster_of(v);
      std::uint64_t x = 0;
      for (std::uint64_t j = 0; j < to.size(); ++j) {
        if ((image_x >> to[j]) & 1U) x |= std::uint64_t{1} << j;
      }
      const std::uint64_t moved = net.position_of(v) ^ g.c;
      std::uint64_t y = 0;
      for (unsigned i = 0; i < g.sigma.size(); ++i) {
        if ((moved >> g.sigma[i]) & 1U) y |= std::uint64_t{1} << i;
      }
      v = net.encode(x ^ g.xs, y);
    }
  }
  return set;
}

/// The orbit representative (0, rep_t) of (s, t) and the map reaching it.
struct Canonical {
  Node rep_t = 0;
  OrbitMap map;
  std::size_t sigma_index = 0;
};

inline Canonical canonical(const HhcTopology& net, Node s, Node t) {
  Canonical best;
  bool found = false;
  const auto all = permutations(net.m());
  for (std::size_t k = 0; k < all.size(); ++k) {
    for (std::uint64_t c = 0; c < net.cluster_size(); ++c) {
      const OrbitMap g{all[k], c, net.cluster_of(s)};
      if (apply(net, g, s) != 0) continue;
      const Node image = apply(net, g, t);
      if (!found || image < best.rep_t) {
        best = {image, g, k};
        found = true;
      }
    }
  }
  return best;
}

/// What the cache and the service must answer for s -> t.
inline core::DisjointPathSet expected_answer(
    const HhcTopology& net, Node s, Node t,
    const core::ConstructionOptions& options = {}) {
  if (!core::OrbitTable::covers(net.m())) {
    return core::node_disjoint_paths(net, s, t, options);
  }
  const Canonical form = canonical(net, s, t);
  return inverse_image(net, form.map,
                       core::node_disjoint_paths(net, 0, form.rep_t, options));
}

}  // namespace hhc::orbit_reference
