#include "cube/cube_disjoint.hpp"

#include <stdexcept>

#include "util/bitops.hpp"

namespace hhc::cube {

std::vector<DimensionSequence> disjoint_route_sequences(const Hypercube& q,
                                                        CubeNode s, CubeNode t,
                                                        std::size_t count) {
  if (!q.contains(s) || !q.contains(t)) {
    throw std::invalid_argument("disjoint_route_sequences: node out of range");
  }
  if (s == t) throw std::invalid_argument("disjoint_route_sequences: s == t");
  if (count > q.dimension()) {
    throw std::invalid_argument(
        "disjoint_route_sequences: at most n disjoint paths exist");
  }

  std::vector<unsigned> differing;
  for (unsigned i = 0; i < q.dimension(); ++i) {
    if (bits::test(s ^ t, i)) differing.push_back(i);
  }
  const std::size_t k = differing.size();

  std::vector<DimensionSequence> routes;
  routes.reserve(count);

  // Rotations: flip the differing dimensions starting at cyclic offset r.
  for (std::size_t r = 0; r < k && routes.size() < count; ++r) {
    DimensionSequence seq;
    seq.reserve(k);
    for (std::size_t j = 0; j < k; ++j) seq.push_back(differing[(r + j) % k]);
    routes.push_back(std::move(seq));
  }

  // Detours: step out across an agreeing dimension e, flip all differing
  // dimensions, and step back across e.
  for (unsigned e = 0; e < q.dimension() && routes.size() < count; ++e) {
    if (bits::test(s ^ t, e)) continue;
    DimensionSequence seq;
    seq.reserve(k + 2);
    seq.push_back(e);
    seq.insert(seq.end(), differing.begin(), differing.end());
    seq.push_back(e);
    routes.push_back(std::move(seq));
  }
  return routes;
}

CubePath realize_route(const Hypercube& q, CubeNode s,
                       const DimensionSequence& route) {
  CubePath path{s};
  CubeNode cur = s;
  for (const unsigned d : route) {
    cur = q.neighbor(cur, d);
    path.push_back(cur);
  }
  return path;
}

std::vector<CubePath> disjoint_paths(const Hypercube& q, CubeNode s, CubeNode t,
                                     std::size_t count) {
  const auto routes = disjoint_route_sequences(q, s, t, count);
  std::vector<CubePath> paths;
  paths.reserve(routes.size());
  for (const auto& route : routes) {
    paths.push_back(realize_route(q, s, route));
  }
  return paths;
}

}  // namespace hhc::cube
