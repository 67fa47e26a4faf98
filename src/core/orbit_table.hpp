// One disjoint-path container per automorphism orbit of node pairs, m <= 4.
//
// The HHC has more symmetry than cluster translation. Take a permutation σ
// of the m Y-bit positions and a mask c in {0,1}^m, and let g(j) = σ(j) ^ c,
// where σ acts on the bits of the m-bit index j. Then
//
//   (X, Y)  ->  (X with bit j moved to bit g(j),  σ(Y) ^ c)
//
// is an automorphism: an internal hop on Y-bit i maps to an internal hop on
// bit σ(i), and an external hop (at position Y, across X-dimension Y) maps
// to the external hop at position g(Y). Together with X-translation these
// maps fold the ordered pairs s != t into 7 / 39 / 479 / 52,767 orbits at
// m = 1..4, against 16 / 256 / 16,384 / 16,777,216 translation classes.
//
// Canonical form. A pair is first translated so that Xs = 0. For each σ, in
// lexicographic order starting from the identity, c = σ(Ys) takes s to
// (0, 0); the image of t is then (σ-image of ΔX, σ(Yt ^ Ys)), where
// ΔX = Xs ^ Xt. The canonical key is the smallest image, packed as the node
// id (X' << m) | Y'. Ties go to the first σ reaching the minimum, so a pair
// whose orbit has a non-trivial stabilizer still gets one deterministic
// answer. The chosen σ depends only on (ΔX, Ys, Yt): translated pairs get
// translated answers, which is what keeps ContainerHandle's XOR relabel
// exact over containers decoded from this table.
//
// Records. An orbit's record is the construction node_disjoint_paths(0, key)
// stored as hop codes: one length byte per path, then one 4-bit code per
// hop (internal dimension i, or kExternal). Serving a pair walks the codes
// from s with internal dimension i read as σ⁻¹(i); an external hop flips
// X-bit dec(Y) wherever the walk stands. The result is the automorphism
// image of the representative's container: m+1 internally disjoint paths
// with the representative's lengths. For the representative itself (σ is
// the identity) it is node_disjoint_paths(s, t) bit for bit.
//
// Concurrency. The table is an insert-only open-addressing array of atomic
// record pointers. A reader's probe is acquire loads; a miss runs the
// construction on the thread's scratch and publishes its record with one
// CAS. A thread that loses the CAS frees its copy and serves the winner's,
// which is identical because the construction is deterministic. Records
// are never evicted; the destructor frees them. DESIGN.md "The orbit table"
// gives the memory per m. The table holds records only: the flattened
// per-class containers lookup() lends out live in ContainerCache's
// ClassStore, which fills them from flatten().
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/disjoint.hpp"
#include "core/topology.hpp"

namespace hhc::core {

class OrbitTable {
 public:
  /// The largest m served; above it the orbit count (about 1.17e9 at
  /// m = 5) is too large to table.
  static constexpr unsigned kMaxM = 4;
  [[nodiscard]] static constexpr bool covers(unsigned m) noexcept {
    return m <= kMaxM;
  }
  /// Orbits of ordered pairs s != t under translation and the (σ, c) maps,
  /// indexed by m (Burnside; pinned by tests/test_orbit_table.cpp).
  static constexpr std::array<std::size_t, kMaxM + 1> kOrbitCounts{
      0, 7, 39, 479, 52767};

  /// Requires covers(net.m()). The topology is held by reference.
  OrbitTable(const HhcTopology& net, ConstructionOptions options);
  ~OrbitTable();

  OrbitTable(const OrbitTable&) = delete;
  OrbitTable& operator=(const OrbitTable&) = delete;

  /// The canonical form of the translation class (ΔX, Ys, Yt): the
  /// representative pair is (0, key), reached by permutation number `sigma`
  /// in lexicographic order (0 is the identity).
  struct Canonical {
    std::uint32_t key = 0;
    std::uint8_t sigma = 0;
  };
  [[nodiscard]] Canonical canonical(std::uint64_t xdiff, std::uint64_t ys,
                                    std::uint64_t yt) const noexcept;

  /// The container for s -> t (s != t, both in range; unchecked), decoded
  /// into owning paths. If `hit` is non-null it receives whether the orbit's
  /// record was already filled, i.e. whether no construction ran.
  [[nodiscard]] DisjointPathSet materialize(Node s, Node t,
                                            bool* hit = nullptr);
  /// The same container flattened: `nodes` holds every path back to back
  /// and `offsets` (m + 2 entries) delimits them. Both are overwritten.
  void flatten(Node s, Node t, std::vector<Node>& nodes,
               std::vector<std::uint32_t>& offsets, bool* hit = nullptr);
  /// Checks the same container in place against `usable`: bit d of a
  /// node's byte is set when the dimension-d edge (d = m external) may be
  /// taken from it. A path is blocked at its first hop whose bit is clear
  /// in the byte of the node it leaves. Returns the blocked count; only
  /// the first strictly shortest unblocked path, if any, is decoded and
  /// appended to `paths`.
  unsigned scan(Node s, Node t, const std::uint8_t* usable,
                std::vector<Path>& paths, bool* hit = nullptr);

  /// Filled records, and the bytes they and the slot array occupy.
  [[nodiscard]] std::size_t entries() const noexcept {
    return entries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  /// Hop code of an external hop; codes 0 .. m-1 are internal dimensions.
  static constexpr unsigned kExternal = 0xF;

  /// The canonical-form tables of one m, built once per process and shared
  /// by every table at that m.
  struct Forms {
    std::size_t count = 0;  // m!, the σ in lexicographic order
    // Byte-wise permutation tables over the 2^m-bit cluster label: entry
    // [(which * 2 + byte) * 256 + v] is the image of byte `byte` holding
    // v. ys_moves moves bit j to j ^ Ys (which = Ys); sigma_moves moves
    // bit j to σ(j) (which = k).
    std::vector<std::uint16_t> ys_moves;
    std::vector<std::uint16_t> sigma_moves;
    std::vector<std::uint8_t> sigma_y;  // [k * 2^m + y] = σ_k(y)
    // [k * 16 + code]: the Y bit an internal hop code flips under σ_k⁻¹,
    // 0 for kExternal.
    std::vector<Node> flips;
  };
  [[nodiscard]] static const Forms& forms(unsigned m);

  /// A record located for one pair: its bytes and the σ⁻¹ hop flips.
  struct Served {
    const std::uint8_t* record;
    const Node* flips;
  };
  [[nodiscard]] Served serve(Node s, Node t, bool* hit);
  /// The record for `key`, filled and published if absent.
  [[nodiscard]] const std::uint8_t* record(std::uint32_t key, bool* hit);
  [[nodiscard]] std::unique_ptr<std::uint8_t[]> build(std::uint32_t key,
                                                      std::size_t& size) const;
  /// Writes path `p`'s nodes, starting from s, to `out`; returns the
  /// position of the next path's first hop code.
  std::size_t decode_path(const std::uint8_t* record, std::size_t hop,
                          unsigned p, const Node* flips, Node s,
                          Node* out) const noexcept;
  [[nodiscard]] static std::size_t slot_of(std::uint32_t key,
                                           unsigned shift) noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9e3779b97f4a7c15ULL) >> shift);
  }

  const HhcTopology& net_;
  ConstructionOptions options_;
  unsigned m_;
  unsigned shift_;  // 64 - log2(slot count)
  const Forms& forms_;

  std::unique_ptr<std::atomic<const std::uint8_t*>[]> slots_;
  std::size_t slot_count_ = 0;
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> record_bytes_{0};
};

}  // namespace hhc::core
