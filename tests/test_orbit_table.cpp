// core::OrbitTable against the slow reference in orbit_reference.hpp: the
// (σ, c) maps are automorphisms, the orbit counts are pinned, the fast
// canonical form equals the reference, and every orbit serves a valid image
// of its representative's construction through every entry point.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/orbit_table.hpp"
#include "orbit_reference.hpp"
#include "query/path_service.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

namespace ref = orbit_reference;

const ConstructionOptions kVariants[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kBalanced},
};

std::size_t length_bound(const HhcTopology& net) {
  return (std::size_t{1} << (net.m() + 1)) + 2 * std::size_t{net.m()} + 3;
}

TEST(OrbitTable, EveryMapIsAnAutomorphismEdgeByEdge) {
  for (unsigned m = 1; m <= 3; ++m) {
    const HhcTopology net{m};
    for (const auto& sigma : ref::permutations(m)) {
      for (std::uint64_t c = 0; c < net.cluster_size(); ++c) {
        const ref::OrbitMap g{sigma, c, 0};
        std::vector<bool> hit(net.node_count(), false);
        for (Node u = 0; u < net.node_count(); ++u) {
          const Node image = ref::apply(net, g, u);
          ASSERT_FALSE(hit[image]) << "not a bijection, m=" << m;
          hit[image] = true;
          ASSERT_EQ(ref::apply_inverse(net, g, image), u);
          for (unsigned i = 0; i < m; ++i) {
            // An internal hop on bit i lands on bit σ(i).
            ASSERT_EQ(ref::apply(net, g, net.internal_neighbor(u, i)),
                      net.internal_neighbor(image, sigma[i]))
                << "m=" << m << " u=" << u << " i=" << i;
          }
          ASSERT_EQ(ref::apply(net, g, net.external_neighbor(u)),
                    net.external_neighbor(image))
              << "m=" << m << " u=" << u;
        }
      }
    }
  }
}

TEST(OrbitTable, OrbitCountsArePinned) {
  // Every pair can be moved to Ys = 0 (pick c = σ(Ys)), so the distinct
  // canonical keys over the Ys = 0 pairs are the orbits.
  const std::size_t pinned[] = {0, 7, 39, 479, 52767};
  for (unsigned m = 1; m <= OrbitTable::kMaxM; ++m) {
    const HhcTopology net{m};
    const OrbitTable table{net, {}};
    std::vector<bool> seen(net.node_count(), false);
    std::size_t orbits = 0;
    for (std::uint64_t xdiff = 0; xdiff < net.cluster_count(); ++xdiff) {
      for (std::uint64_t yt = 0; yt < net.cluster_size(); ++yt) {
        if (xdiff == 0 && yt == 0) continue;
        const auto form = table.canonical(xdiff, 0, yt);
        if (!seen[form.key]) {
          seen[form.key] = true;
          ++orbits;
        }
      }
    }
    EXPECT_EQ(orbits, pinned[m]) << "m=" << m;
    EXPECT_EQ(OrbitTable::kOrbitCounts[m], pinned[m]) << "m=" << m;
  }
}

void expect_canonical_matches(const HhcTopology& net, const OrbitTable& table,
                              std::uint64_t xdiff, std::uint64_t ys,
                              std::uint64_t yt) {
  const Node s = net.encode(0, ys);
  const Node t = net.encode(xdiff, yt);
  const auto fast = table.canonical(xdiff, ys, yt);
  const auto slow = ref::canonical(net, s, t);
  ASSERT_EQ(Node{fast.key}, slow.rep_t)
      << "m=" << net.m() << " xdiff=" << xdiff << " ys=" << ys << " yt=" << yt;
  ASSERT_EQ(std::size_t{fast.sigma}, slow.sigma_index)
      << "m=" << net.m() << " xdiff=" << xdiff << " ys=" << ys << " yt=" << yt;
}

TEST(OrbitTable, FastCanonicalFormMatchesTheReference) {
  for (unsigned m = 1; m <= 3; ++m) {
    const HhcTopology net{m};
    const OrbitTable table{net, {}};
    for (std::uint64_t xdiff = 0; xdiff < net.cluster_count(); ++xdiff) {
      for (std::uint64_t ys = 0; ys < net.cluster_size(); ++ys) {
        for (std::uint64_t yt = 0; yt < net.cluster_size(); ++yt) {
          if (xdiff == 0 && ys == yt) continue;
          expect_canonical_matches(net, table, xdiff, ys, yt);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  const HhcTopology net{4};
  const OrbitTable table{net, {}};
  util::Xoshiro256 rng{0x0B17};
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t xdiff = rng.below(net.cluster_count());
    const std::uint64_t ys = rng.below(net.cluster_size());
    const std::uint64_t yt = rng.below(net.cluster_size());
    if (xdiff == 0 && ys == yt) continue;
    expect_canonical_matches(net, table, xdiff, ys, yt);
    if (HasFatalFailure()) return;
  }
}

TEST(OrbitTable, EveryOrbitServesAValidImageOfItsRepresentative) {
  for (unsigned m = 1; m <= OrbitTable::kMaxM; ++m) {
    const HhcTopology net{m};
    OrbitTable table{net, {}};
    const auto perms = ref::permutations(m);
    util::Xoshiro256 rng{0x0B18 + m};
    std::size_t orbits = 0;
    for (Node key = 1; key < net.cluster_count() * net.cluster_size(); ++key) {
      const auto form =
          table.canonical(net.cluster_of(key), 0, net.position_of(key));
      if (form.key != key) continue;  // not a representative
      ++orbits;
      const DisjointPathSet rep = node_disjoint_paths(net, 0, key);
      bool hit = true;
      ASSERT_EQ(table.materialize(0, key, &hit).paths, rep.paths)
          << "m=" << m << " key=" << key;
      EXPECT_FALSE(hit);

      // A random member: translate by a random Xs, then undo a random
      // (σ, c). Its answer is the image of `rep` under the map the
      // canonical form picks for it.
      const ref::OrbitMap g{perms[rng.below(perms.size())],
                            rng.below(net.cluster_size()),
                            rng.below(net.cluster_count())};
      const Node s = ref::apply_inverse(net, g, 0);
      const Node t = ref::apply_inverse(net, g, key);
      const DisjointPathSet served = table.materialize(s, t, &hit);
      EXPECT_TRUE(hit);
      std::string why;
      ASSERT_TRUE(verify_disjoint_path_set(net, served, s, t, &why))
          << "m=" << m << " s=" << s << " t=" << t << ": " << why;
      ASSERT_LE(served.max_length(), length_bound(net));
      const auto chosen =
          table.canonical(net.cluster_of(s) ^ net.cluster_of(t),
                          net.position_of(s), net.position_of(t));
      ASSERT_EQ(Node{chosen.key}, key);
      ref::OrbitMap used{perms[chosen.sigma], 0, net.cluster_of(s)};
      used.c = ref::permute_bits(used.sigma, net.position_of(s));
      ASSERT_EQ(served.paths, ref::inverse_image(net, used, rep).paths)
          << "m=" << m << " s=" << s << " t=" << t;
    }
    EXPECT_EQ(orbits, OrbitTable::kOrbitCounts[m]);
    EXPECT_EQ(table.entries(), OrbitTable::kOrbitCounts[m]);
    // The fully populated m = 4 table: slots plus records within 6 MB.
    EXPECT_LE(table.bytes(), std::size_t{6} << 20) << "m=" << m;
  }
}

// Usable-edge maps for the scan, seeded. They are directed on purpose: a
// cut clears a bit in one byte only, so the node a hop leaves and the node
// it enters read differently and the test pins which byte the scan reads.
enum class Cut { kNothing, kSparse, kExternalOnly, kEverything };

std::vector<std::uint8_t> usable_map(const HhcTopology& net, Cut cut,
                                     std::uint64_t seed) {
  const auto all = static_cast<std::uint8_t>((1U << (net.m() + 1)) - 1);
  std::vector<std::uint8_t> usable(net.node_count(),
                                   cut == Cut::kEverything ? 0 : all);
  util::Xoshiro256 rng{seed};
  for (std::uint8_t& byte : usable) {
    if (cut == Cut::kSparse) {
      if (rng.below(50) == 0) byte = 0;  // a node cut: ~2%
      for (unsigned d = 0; d <= net.m(); ++d) {
        if (rng.below(10) == 0) byte = static_cast<std::uint8_t>(byte & ~(1U << d));
      }
    } else if (cut == Cut::kExternalOnly && rng.below(4) == 0) {
      byte = static_cast<std::uint8_t>(byte & ~(1U << net.m()));
    }
  }
  return usable;
}

// The scan against the flattened container checked hop by hop in the same
// map: equal blocked counts and the same delivered path (the first strictly
// shortest survivor). Counts the routes delivered with some path blocked.
void expect_scan_matches_flatten(const HhcTopology& net, OrbitTable& table,
                                 const std::vector<std::uint8_t>& usable,
                                 Node s, Node t, std::size_t& mixed) {
  FlatContainer flat;
  table.flatten(s, t, flat);
  const std::vector<Node>& nodes = flat.nodes;
  const std::vector<std::uint32_t>& offsets = flat.offsets;
  unsigned blocked = 0;
  Path expected;
  for (std::size_t p = 0; p + 1 < offsets.size(); ++p) {
    bool open = true;
    for (std::size_t j = offsets[p]; j + 1 < offsets[p + 1]; ++j) {
      const Node flip = nodes[j] ^ nodes[j + 1];
      const unsigned dim = flip < net.cluster_size()
                               ? static_cast<unsigned>(std::countr_zero(flip))
                               : net.m();
      open = open && ((unsigned{usable[nodes[j]]} >> dim) & 1U) != 0;
    }
    const std::size_t size = offsets[p + 1] - offsets[p];
    if (!open) {
      ++blocked;
    } else if (expected.empty() || size < expected.size()) {
      expected.assign(nodes.data() + offsets[p],
                      nodes.data() + offsets[p + 1]);
    }
  }
  std::vector<Path> paths;
  bool scan_hit = false;
  ASSERT_EQ(table.scan(s, t, usable.data(), paths, &scan_hit), blocked)
      << "m=" << net.m() << " s=" << s << " t=" << t;
  ASSERT_EQ(paths, expected.empty() ? std::vector<Path>{}
                                    : std::vector<Path>{expected})
      << "m=" << net.m() << " s=" << s << " t=" << t;
  ASSERT_TRUE(scan_hit);  // flatten filled the record
  if (blocked > 0 && !paths.empty()) ++mixed;
}

TEST(OrbitTable, ScanInPlaceMatchesFlattenThenCheck) {
  for (unsigned m = 1; m <= OrbitTable::kMaxM; ++m) {
    const HhcTopology net{m};
    OrbitTable table{net, {}};
    util::Xoshiro256 rng{0x0B1C + m};
    // Every translation class (ΔX, Ys, Yt) at m <= 3, translated to a
    // random Xs; 3,000 sampled classes at m = 4.
    std::vector<std::pair<Node, Node>> pairs;
    const auto add = [&](std::uint64_t xdiff, std::uint64_t ys,
                         std::uint64_t yt) {
      const std::uint64_t xs = rng.below(net.cluster_count());
      pairs.emplace_back(net.encode(xs, ys), net.encode(xs ^ xdiff, yt));
    };
    if (m <= 3) {
      for (std::uint64_t xdiff = 0; xdiff < net.cluster_count(); ++xdiff) {
        for (std::uint64_t ys = 0; ys < net.cluster_size(); ++ys) {
          for (std::uint64_t yt = 0; yt < net.cluster_size(); ++yt) {
            if (xdiff != 0 || ys != yt) add(xdiff, ys, yt);
          }
        }
      }
    } else {
      while (pairs.size() < 3000) {
        const std::uint64_t xdiff = rng.below(net.cluster_count());
        const std::uint64_t ys = rng.below(net.cluster_size());
        const std::uint64_t yt = rng.below(net.cluster_size());
        if (xdiff != 0 || ys != yt) add(xdiff, ys, yt);
      }
    }
    // A scan fills an absent record and reports the miss.
    std::vector<Path> first;
    bool hit = true;
    (void)table.scan(pairs[0].first, pairs[0].second,
                     usable_map(net, Cut::kNothing, 0).data(), first, &hit);
    EXPECT_FALSE(hit);
    std::size_t mixed = 0;
    for (const Cut cut : {Cut::kNothing, Cut::kSparse, Cut::kExternalOnly,
                          Cut::kEverything}) {
      const auto usable = usable_map(net, cut, rng());
      for (const auto& [s, t] : pairs) {
        expect_scan_matches_flatten(net, table, usable, s, t, mixed);
        if (HasFatalFailure()) return;
      }
    }
    // Some routes are delivered past a blocked path, not only all-or-none.
    EXPECT_GT(mixed, 0u) << "m=" << m;
  }
}

TEST(OrbitTable, EveryVariantsTableServesItsImageAndEntryPointsAgree) {
  for (const unsigned m : {3U, 4U}) {
    const HhcTopology net{m};
    const auto pairs = sample_pairs(net, 60, 0x0B1B + m);
    // A table built under any option variant serves that variant's image.
    for (const ConstructionOptions& options : kVariants) {
      OrbitTable table{net, options};
      for (const auto& [s, t] : pairs) {
        EXPECT_EQ(table.materialize(s, t).paths,
                  ref::expected_answer(net, s, t, options).paths)
            << "m=" << m << " s=" << s << " t=" << t;
      }
    }

    // The served path has one construction, the default: answer(),
    // answer_view() and lookup() serve its image.
    query::PathService service{net};
    ContainerCache cache{net};
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [s, t] = pairs[i];
      const query::PairQuery q{.s = s, .t = t};
      // Alternate which entry point fills the orbit record first.
      std::vector<Path> view;
      std::vector<Path> answer;
      if (i % 2 == 0) {
        answer = service.answer(q).paths;
        view = service.answer_view(q).container.materialize().paths;
      } else {
        view = service.answer_view(q).container.materialize().paths;
        answer = service.answer(q).paths;
      }
      const auto looked_up = cache.lookup(s, t).materialize().paths;
      const auto expected = ref::expected_answer(net, s, t).paths;
      EXPECT_EQ(answer, expected) << "m=" << m << " s=" << s << " t=" << t;
      EXPECT_EQ(view, expected) << "m=" << m << " s=" << s << " t=" << t;
      EXPECT_EQ(looked_up, expected) << "m=" << m << " s=" << s << " t=" << t;
    }
    const CacheStats stats = cache.stats();
    EXPECT_GT(stats.orbit_entries, 0u);
    EXPECT_GT(stats.orbit_bytes, stats.orbit_entries);
  }
}

}  // namespace
}  // namespace hhc::core
