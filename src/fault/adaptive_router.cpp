#include "fault/adaptive_router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/orbit_table.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/bitops.hpp"

namespace hhc::fault {

using core::ActiveFaults;
using core::FaultModel;
using core::Node;
using core::Path;

namespace {

// HhcTopology::external_neighbor without its range check: flips bit
// dec(Y) of X, i.e. address bit m + Y.
Node external_neighbor(Node v, unsigned m) noexcept {
  return bits::flip(v, m + static_cast<unsigned>(v & bits::low_mask(m)));
}

// The neighbor of v across dimension `dim` (dim = m: the external edge).
Node neighbor(Node v, unsigned dim, unsigned m) noexcept {
  return dim < m ? bits::flip(v, dim) : external_neighbor(v, m);
}

// One byte per node: bit d is set when the dimension-d edge (d = m the
// external one) is usable in a snapshot, i.e. the link is healthy and both
// endpoints are alive. Keyed on the snapshot's identity (model version and
// validity interval) and on m. A re-projection at the same m resets only
// the bytes the previous one cleared, so it costs O(facts) and, once
// `touched_` has grown, allocates nothing. Facts naming nodes outside the
// topology, or links that are not edges of it, block nothing: skipped.
class UsableEdges {
 public:
  const std::uint8_t* project(const ActiveFaults& active,
                              const core::HhcTopology& net) {
    const unsigned m = net.m();
    if (active.version() == version_ && active.valid_from() == from_ &&
        active.valid_until() == until_ && m == m_) {
      return usable_.data();
    }
    const auto n = static_cast<std::size_t>(net.node_count());
    const auto all = static_cast<std::uint8_t>(bits::low_mask(m + 1));
    if (m != m_) {
      usable_.assign(n, all);  // touched_ may name nodes beyond n
    } else {
      for (const Node v : touched_) usable_[v] = all;
    }
    touched_.clear();
    for (const ActiveFaults::Fact& fact : active.facts()) {
      if (fact.b >= n) continue;  // a <= b: both ends are then in range
      // A node fact cuts every edge at the node, a link fact its own.
      unsigned first = 0;
      unsigned last = m;
      if (fact.a != fact.b) {
        const Node flip = fact.a ^ fact.b;
        first = last = flip <= bits::low_mask(m) && std::has_single_bit(flip)
                           ? static_cast<unsigned>(std::countr_zero(flip))
                           : m;
        if (neighbor(fact.a, first, m) != fact.b) continue;  // not an edge
      }
      for (unsigned dim = first; dim <= last; ++dim) {
        for (const Node v : {fact.a, neighbor(fact.a, dim, m)}) {
          usable_[v] = static_cast<std::uint8_t>(usable_[v] & ~(1U << dim));
          touched_.push_back(v);
        }
      }
    }
    version_ = active.version();
    from_ = active.valid_from();
    until_ = active.valid_until();
    m_ = m;
    return usable_.data();
  }

 private:
  std::vector<std::uint8_t> usable_;
  std::vector<Node> touched_;  // bytes the last projection cleared
  std::uint64_t version_ = 0;  // no model carries version 0
  std::uint64_t from_ = 0;
  std::uint64_t until_ = 0;
  unsigned m_ = 0;  // no topology has m = 0
};

// The fault-free distance in HHC(m), m <= 4. An external hop at position j
// flips X-bit j, so a shortest walk from v to t takes one external hop per
// set bit of ΔX = X_v ^ X_t and, between them, a shortest Q_m walk from Y_v
// through every position in ΔX to Y_t: a travelling-salesman path over at
// most 2^m points. Translating every position by Y_t keeps Hamming
// distances, so the key is S (ΔX with bit j moved to j ^ Y_t) and
// y = Y_v ^ Y_t, and the walk ends at 0. `cells[(S << m) | y]` is the
// distance, one byte each: 8 B, 64 B, 2 KiB and 1 MiB at m = 1..4, and as
// much again for the masks below. The Held–Karp DP over S picks the
// position j visited first:
//   d(∅, y) = |y|,   d(S, y) = min_{j in S} H(y, j) + 1 + d(S \ {j}, j),
// with y the innermost loop, so a (S, j) step is one vector min.
//
// `falling[(S << m) | y]`, a byte beside each cell, has bit d set when the
// dimension-d neighbor (d = m the external one) is one hop nearer to t, so
// a search reads one byte per expansion instead of a cell per neighbor. An
// internal hop across d flips bit d of y, the cell's index bit d; an
// external hop flips bit y of S. The DP already loads the external
// neighbor's cell d(S \ {j}, j) of every (S, j in S) and parks it in
// `falling[(S << m) | j]`; with j not in S the external neighbor
// (S + {j}, j) is always one hop farther, since deleting one hop at j from
// a walk out of it leaves a walk out of (S, j), and the parked byte is
// kFarther. Once a batch of rows is final, derive() turns the batch's
// parked bytes into masks, eight cells to a 64-bit word.
template <unsigned M>
struct DistanceTable {
  static constexpr unsigned kPositions = 1U << M;
  static constexpr std::size_t kSets = std::size_t{1} << kPositions;
  static constexpr std::size_t kCells = kSets * kPositions;
  // Whole rows, and whole words: at m = 4 a word's dimension-3 neighbor is
  // the other word of its row.
  static constexpr std::size_t kBatch = std::min<std::size_t>(kCells, 512);
  static_assert(kCells % kBatch == 0 && kBatch % kPositions == 0 &&
                kBatch % 8 == 0);
  // Parked where no external neighbor is nearer: above every distance,
  // and 0x7F + 1 does not carry out of its byte.
  static constexpr std::uint8_t kFarther = 0x7F;

  DistanceTable() {
    std::array<std::array<std::uint8_t, kPositions>, kPositions> hop{};
    for (unsigned j = 0; j < kPositions; ++j) {
      for (unsigned y = 0; y < kPositions; ++y) {
        hop[j][y] = static_cast<std::uint8_t>(std::popcount(j ^ y) + 1);
      }
    }
    for (unsigned y = 0; y < kPositions; ++y) {
      cells[y] = static_cast<std::uint8_t>(std::popcount(y));
      falling[y] = kFarther;
    }
    for (std::size_t set = 1; set < kSets; ++set) {
      std::uint8_t* const row = cells.data() + set * kPositions;
      std::uint8_t* const parked = falling.data() + set * kPositions;
      std::fill(row, row + kPositions, std::uint8_t{0xFF});
      std::fill(parked, parked + kPositions, kFarther);
      for (std::size_t rest = set; rest != 0; rest &= rest - 1) {
        const auto j = static_cast<unsigned>(std::countr_zero(rest));
        const std::uint8_t via =
            cells[(set ^ (std::size_t{1} << j)) * kPositions + j];
        parked[j] = via;
        const std::uint8_t* const from_j = hop[j].data();
        // Left rolled: gcc -O3 unrolls a 16-trip loop fully before it
        // vectorizes, into 16 scalar mins, and the m = 4 build takes 6x as
        // long.
#pragma GCC unroll 1
        for (unsigned y = 0; y < kPositions; ++y) {
          const auto via_j = static_cast<std::uint8_t>(from_j[y] + via);
          row[y] = via_j < row[y] ? via_j : row[y];
        }
      }
      const std::size_t done = (set + 1) * kPositions;
      if (done % kBatch == 0) derive(done - kBatch);
    }
  }

  // The masks of cells [first, first + kBatch), whose distances are final
  // and whose bytes in `falling` hold the parked external distances. Cell
  // i's dimension-d neighbor is cell i ^ 2^d: in the same word for d < 3,
  // its bytes swapped in blocks of 2^d, and in the other word of the row
  // for d = 3. Every byte is below 0x80, so (a | 0x80) - (b + 1) keeps bit
  // 7 of a byte exactly when a > b, with no borrow between bytes. The
  // batch is copied out and back so that gcc vectorizes the loop.
  void derive(std::size_t first) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = kOnes << 7;
    constexpr std::size_t kWords = kBatch / 8;
    constexpr std::array<std::uint64_t, 2> kLow = {0x00FF00FF00FF00FFULL,
                                                   0x0000FFFF0000FFFFULL};
    std::array<std::uint64_t, kWords> dist;
    std::array<std::uint64_t, kWords> down;
    std::memcpy(dist.data(), cells.data() + first, kBatch);
    std::memcpy(down.data(), falling.data() + first, kBatch);
    for (std::size_t w = 0; w < kWords; ++w) {
      const std::uint64_t high = dist[w] | kHigh;
      // Each byte + 1: swapped, the b + 1 of an internal neighbor.
      const std::uint64_t plus = dist[w] + kOnes;
      // Bit d of each byte: is the neighbor's distance b below the cell's?
      const auto nearer = [high](std::uint64_t b_plus_1, unsigned d) {
        return ((high - b_plus_1) & kHigh) >> (7 - d);
      };
      std::uint64_t mask = nearer(down[w] + kOnes, M);
      for (unsigned d = 0; d < std::min(M, 2U); ++d) {
        const unsigned width = 8U << d;
        mask |= nearer(((plus & kLow[d]) << width) | ((plus >> width) & kLow[d]),
                       d);
      }
      if constexpr (M > 2) mask |= nearer(std::rotl(plus, 32), 2);
      if constexpr (M > 3) mask |= nearer(dist[w ^ 1] + kOnes, 3);
      down[w] = mask;
    }
    std::memcpy(falling.data() + first, down.data(), kBatch);
  }

  std::array<std::uint8_t, kCells> cells;
  std::array<std::uint8_t, kCells> falling;
};

// The diameter of HHC(kMaxM), 2^(kMaxM + 1): the largest distance any table
// holds, which Mark::h and the search's counting sort must fit.
constexpr unsigned kMaxDistance = 2U << core::OrbitTable::kMaxM;

// One m's table: distances and falling-dimension masks, by cell.
struct DistanceCells {
  const std::uint8_t* distance;
  const std::uint8_t* falling;
};

// m's table, built by its first caller; a function-local static, so threads
// that search at once for the first time build it once.
template <unsigned M>
DistanceCells distance_cells() {
  static const DistanceTable<M> table;
  return {table.cells.data(), table.falling.data()};
}

DistanceCells distance_table(unsigned m) {
  static_assert(core::OrbitTable::kMaxM == 4);
  assert(m >= 1 && m <= core::OrbitTable::kMaxM);
  switch (m) {
    case 1: return distance_cells<1>();
    case 2: return distance_cells<2>();
    case 3: return distance_cells<3>();
    default: return distance_cells<4>();
  }
}

// The 2^m-bit set x with bit j moved to bit j ^ c (c < 2^m <= 16): one
// swap of blocks of 2^k bits per set bit k of c.
std::uint32_t translate(std::uint32_t x, unsigned c) noexcept {
  constexpr std::array<std::uint32_t, 4> kLow = {0x5555, 0x3333, 0x0F0F,
                                                 0x00FF};
  for (unsigned k = 0; k < kLow.size(); ++k) {
    if (((c >> k) & 1U) != 0) {
      const unsigned width = 1U << k;
      x = ((x & kLow[k]) << width) | ((x >> width) & kLow[k]);
    }
  }
  return x;
}

// v's cell in the distance table of t's topology.
std::size_t distance_index(unsigned m, Node v, Node t) noexcept {
  const Node diff = v ^ t;
  const auto set = translate(static_cast<std::uint32_t>(diff >> m),
                             static_cast<unsigned>(t & bits::low_mask(m)));
  return (std::size_t{set} << m) | (diff & bits::low_mask(m));
}

// The usable edges that fall toward `to` within two hops of `from`: those
// at `from`, and those at each neighbor such an edge reaches. The fewer
// there are, the more damaged `from`'s side of the pair. A neighbor's cell
// is `from`'s with one index bit flipped: bit d for an internal hop across
// d, bit m + y of the row for the external one.
unsigned falling_reach(unsigned m, Node from, Node to,
                       const std::uint8_t* usable) {
  const std::uint8_t* const falling = distance_table(m).falling;
  const std::size_t cell = distance_index(m, from, to);
  const auto y = static_cast<unsigned>(cell & bits::low_mask(m));
  const unsigned first = usable[from] & falling[cell];
  auto reach = static_cast<unsigned>(std::popcount(first));
  for (unsigned rest = first; rest != 0; rest &= rest - 1) {
    const auto dim = static_cast<unsigned>(std::countr_zero(rest));
    const std::size_t next = cell ^ (std::size_t{1} << (dim < m ? dim : m + y));
    const unsigned onward = usable[neighbor(from, dim, m)] & falling[next];
    reach += static_cast<unsigned>(std::popcount(onward));
  }
  return reach;
}

// Per-thread survivor-search state, reused across searches so that once it
// has grown to a topology a search allocates nothing.
//
// `marks` holds one record per node of the largest topology searched so
// far. A node is generated in the current search only while its `stamp`
// equals `epoch`, and reached by the guard search from t only while its
// `guard` does, so starting a search is one increment rather than a clear;
// when the epoch wraps, every stamp is cleared once. The stamps are 16
// bits so that a test can cross the wrap in a fraction of a second. The
// two A* stacks and the guard's FIFO have a slot per node each and are
// never initialized: a slot is written before it is read, so pages a
// search does not reach are never touched.
struct SearchScratch {
  // A generated node's bits: the low three name the dimension of the edge
  // from its parent (kRoot for s), kClosed is set once it is expanded, and
  // kBucket is the parity of f / 2 when it was last pushed. kRoot names no
  // dimension, so masking "the edge to the parent" out of s's usable byte
  // removes nothing.
  static constexpr std::uint8_t kDimBits = 0x07;
  static constexpr std::uint8_t kRoot = 0x07;
  static constexpr std::uint8_t kClosed = 0x08;
  static constexpr std::uint8_t kBucket = 0x10;
  static_assert(kRoot > core::OrbitTable::kMaxM);

  // A guard FIFO slot: the node id in the low kIdBits bits, and above them
  // the dimension of the edge it was reached by (kRoot for t). Every id at
  // m <= 4 fits: HHC(m) has 2^(2^m + m) nodes.
  static constexpr unsigned kIdBits = 20;
  static constexpr std::uint32_t kIdMask = (1U << kIdBits) - 1;
  static_assert((1U << core::OrbitTable::kMaxM) + core::OrbitTable::kMaxM <=
                kIdBits);
  static_assert(kIdBits + 3 <= 32);  // kRoot fits above every id

  struct Mark {
    std::uint16_t stamp = 0;
    std::uint16_t guard = 0;
    std::uint8_t h = 0;  // the fault-free distance to t
    std::uint8_t bits = 0;
    std::uint16_t row = 0;  // S, the row of its distance cell
  };
  static_assert((1U << core::OrbitTable::kMaxM) <= 16);  // S fits `row`

  /// Forgets the previous search and makes room for `node_count` nodes.
  void begin(std::uint64_t node_count) {
    if (capacity < node_count) {
      const auto n = static_cast<std::size_t>(node_count);
      marks.resize(n);
      for (auto& slots : stacks) {
        slots = std::make_unique_for_overwrite<std::uint32_t[]>(n);
      }
      guard_fifo = std::make_unique_for_overwrite<std::uint32_t[]>(n);
      capacity = node_count;
    }
    if (++epoch == 0) {
      for (Mark& mark : marks) mark.stamp = mark.guard = 0;
      epoch = 1;
    }
  }

  /// The path s -> ... -> u -> t of `hops` edges, read back from t through
  /// the parent dimensions; allocates exactly the returned path.
  [[nodiscard]] Path trace(unsigned m, Node u, Node t, std::size_t hops) const {
    Path path(hops + 1);
    path[hops] = t;
    path[hops - 1] = u;
    for (std::size_t i = hops - 1; i > 0; --i) {
      path[i - 1] = neighbor(path[i], marks[path[i]].bits & kDimBits, m);
    }
    return path;
  }

  std::vector<Mark> marks;
  // The open nodes at f and at f + 2, as node ids: the search runs only at
  // m <= 4, whose ids fit 32 bits. The guard's FIFO holds slots.
  std::array<std::unique_ptr<std::uint32_t[]>, 2> stacks;
  std::unique_ptr<std::uint32_t[]> guard_fifo;
  std::uint64_t capacity = 0;  // nodes `marks` and each slot array hold
  std::uint16_t epoch = 0;
};

// Everything a route keeps per thread, reused across calls.
struct RouterScratch {
  // The usable-edge bytes of the thread's fault snapshot, projected on the
  // first scan or search that reads them after a re-resolve.
  UsableEdges usable;
  SearchScratch search;
};

RouterScratch& tls_router_scratch() {
  thread_local RouterScratch scratch;
  return scratch;
}

// Scans `container` in place for surviving paths, as OrbitTable::scan does
// the orbit record: returns the number blocked, and appends the first
// strictly shortest survivor, the only one copied, to `paths`. route() has
// already found both endpoints healthy, so a hop checks only its link and,
// unless it enters t, the node it enters.
unsigned select_survivor(const core::ContainerHandle& container,
                         const ActiveFaults& active, std::vector<Path>& paths) {
  std::size_t best = 0;
  std::size_t best_size = 0;  // 0 until a path survives
  unsigned blocked = 0;
  for (std::size_t i = 0; i < container.path_count(); ++i) {
    const std::size_t size = container.path_size(i);
    bool survives = true;
    for (std::size_t j = 1; j < size && survives; ++j) {
      const Node v = container.node(i, j);
      survives = (j + 1 == size || !active.node_faulty(v)) &&
                 !active.link_faulty(container.node(i, j - 1), v);
    }
    if (!survives) {
      ++blocked;
    } else if (best_size == 0 || size < best_size) {
      best = i;
      best_size = size;
    }
  }
  if (best_size != 0) paths.push_back(container.materialize_path(best));
  return blocked;
}

// What one survivor search did.
struct SearchWork {
  std::size_t search_expansions = 0;  // A* expansions
  std::size_t guard_expansions = 0;   // guard BFS expansions
  bool timed_out = false;
};

// A* from s to t over the usable edges, h being the fault-free distance to t
// (DistanceTable); empty when t is unreachable. s is the search's start:
// route() swaps the query's endpoints when t is the more damaged
// (falling_reach). HHC is bipartite, so the
// distance changes by exactly 1 across every edge and f = g + h rises by 0 or 2
// along an edge and two LIFO stacks, the open nodes at f and at f + 2,
// replace a priority queue. A node is closed when expanded; the first time
// t is generated, from a node at the current (least) f, closes a shortest
// path. Among the nodes at f the search pops one of least h (largest g)
// first: when `open` empties, `later` is counting-sorted by h into it,
// largest h at the bottom, and a node pushed at f while u is expanded has
// h(u) - 1, at most every open h, so the top of the stack stays least.
// Expanding u takes its usable edges in ascending dimension, which is
// HhcTopology::neighbors order, and the sort keeps push order among equal
// h, so a detour depends only on the snapshot and (s, t). No fault fact is
// read here: `usable` folds each edge's link and both endpoints into one
// bit. The edge u was last pushed along is masked out first: it leads to
// u's parent, which was closed when it pushed u, so skipping it changes
// nothing but the work. Only s's h is read from the table: an expansion
// reads u's falling-dimension mask, at the cell its mark's row names, and
// gives each neighbor h(u) - 1 or h(u) + 1 by its bit.
//
// A* alone would sweep all of s's component when t sits in a smaller one.
// A plain BFS from t (the guard) runs beside it: one expansion before the
// first A* expansion, so an isolated t costs one, then, once A* has made
// kGuardDelay expansions, one per kGuardStride more. It skips the edge
// each node was reached by in the same way, carried in the FIFO slot.
// When the guard exhausts t's component without reaching s, or A*'s
// stacks empty, t is unreachable; a disconnected pair costs at most
// min(|C_s|, kGuardDelay + kGuardStride * |C_t|) A* expansions.
//
// Cooperatively cancellable: every util::kStopCheckStride A* expansions the
// query's deadline/token are polled, and an expired search sets
// `work.timed_out` and returns empty — a hostile fault set can make this
// search visit a whole survivor component, which is exactly the stage a
// deadline must be able to interrupt. `work` also receives the A* and guard
// expansions made.
Path survivor_search(const core::HhcTopology& net, Node s, Node t,
                     const std::uint8_t* usable, SearchScratch& scratch,
                     const query::PairQuery& query, SearchWork& work) {
  using Mark = SearchScratch::Mark;
  constexpr std::size_t kGuardStride = 4;
  constexpr std::size_t kGuardDelay = 32;
  std::array<std::uint32_t, kMaxDistance + 1> at_h;  // the sort's counts by h
  static_assert(at_h.size() > kMaxDistance);
  static_assert(kMaxDistance <=
                std::numeric_limits<decltype(SearchScratch::Mark::h)>::max());
  scratch.begin(net.node_count());
  const unsigned m = net.m();
  const std::uint16_t epoch = scratch.epoch;
  Mark* const marks = scratch.marks.data();

  // The guard's state: t's component so far is guard_fifo[0, guard_tail),
  // expanded up to guard_head. It stops once it has reached s.
  constexpr unsigned kIdBits = SearchScratch::kIdBits;
  std::uint32_t* const guard_fifo = scratch.guard_fifo.get();
  std::size_t guard_head = 0;
  std::size_t guard_tail = 1;
  bool guard_live = true;
  guard_fifo[0] = static_cast<std::uint32_t>(t) |
                  std::uint32_t{SearchScratch::kRoot} << kIdBits;
  marks[t].guard = epoch;
  // One guard expansion; false once t's component is exhausted without s.
  const auto guard_step = [&] {
    const std::uint32_t slot = guard_fifo[guard_head++];
    const Node u = slot & SearchScratch::kIdMask;
    const unsigned edges = usable[u] & ~(1U << (slot >> kIdBits));
    for (unsigned rest = edges; rest != 0; rest &= rest - 1) {
      const auto dim = static_cast<unsigned>(std::countr_zero(rest));
      const Node v = neighbor(u, dim, m);
      if (marks[v].guard == epoch) continue;
      if (v == s) guard_live = false;  // connected: A* will find t
      marks[v].guard = epoch;
      guard_fifo[guard_tail++] = static_cast<std::uint32_t>(v) | dim << kIdBits;
    }
    return !guard_live || guard_head < guard_tail;
  };
  std::size_t expansions = 0;
  const auto finish = [&](Path path) {
    work.search_expansions = expansions;
    work.guard_expansions = guard_head;
    return path;
  };
  if (!guard_step()) return finish({});

  const DistanceCells table = distance_table(m);
  const std::size_t s_cell = distance_index(m, s, t);
  // `open` is the stack at the least f, `later` the one at f + 2; a node's
  // kBucket bit says which f it was last pushed at.
  std::uint32_t* const open = scratch.stacks[0].get();
  std::uint32_t* const later = scratch.stacks[1].get();
  std::size_t open_size = 1;
  std::size_t later_size = 0;
  std::uint8_t bucket = 0;
  std::size_t f = table.distance[s_cell];
  open[0] = static_cast<std::uint32_t>(s);
  marks[s].stamp = epoch;
  marks[s].h = static_cast<std::uint8_t>(f);
  marks[s].bits = SearchScratch::kRoot;
  marks[s].row = static_cast<std::uint16_t>(s_cell >> m);
  for (;;) {
    if (open_size == 0) {
      if (later_size == 0) return finish({});  // s's component is exhausted
      // f rises by 2: `later` moves to `open`, counting-sorted by h with
      // the largest at the bottom and push order kept among equal h.
      at_h.fill(0);
      for (std::size_t i = 0; i < later_size; ++i) ++at_h[marks[later[i]].h];
      std::uint32_t slot = 0;  // at_h[h] becomes h's first slot in `open`
      for (std::size_t h = at_h.size(); h-- > 0;) {
        const std::uint32_t count = at_h[h];
        at_h[h] = slot;
        slot += count;
      }
      for (std::size_t i = 0; i < later_size; ++i) {
        open[at_h[marks[later[i]].h]++] = later[i];
      }
      open_size = std::exchange(later_size, 0);
      bucket = static_cast<std::uint8_t>(bucket ^ SearchScratch::kBucket);
      f += 2;
    }
    const Node u = open[--open_size];
    Mark& from = marks[u];
    if ((from.bits & SearchScratch::kClosed) != 0) continue;  // re-pushed
    from.bits |= SearchScratch::kClosed;
    if (++expansions % util::kStopCheckStride == 0 &&
        util::should_stop(query.deadline, query.cancel)) {
      work.timed_out = true;
      return finish({});
    }
    if (guard_live && expansions > kGuardDelay &&
        expansions % kGuardStride == 0 && !guard_step()) {
      return finish({});  // t's component is exhausted without s
    }
    // u's cell (S, y), S carried in its mark: an internal hop flips a bit
    // of y, an external one bit y of S.
    const unsigned row = from.row;
    const auto y = static_cast<unsigned>((u ^ t) & bits::low_mask(m));
    const unsigned falling = table.falling[(std::size_t{row} << m) | y];
    const unsigned h = from.h;
    // The edge u was reached by leads back to its parent, which is closed.
    const unsigned edges =
        usable[u] & ~(1U << (from.bits & SearchScratch::kDimBits));
    for (unsigned rest = edges; rest != 0; rest &= rest - 1) {
      const auto dim = static_cast<unsigned>(std::countr_zero(rest));
      const Node v = neighbor(u, dim, m);
      if (v == t) {  // h(u) = 1: g(u) = f - 1
        return finish(scratch.trace(m, u, t, f));
      }
      // Via u, v lies at f when the distance falls, else at f + 2.
      const bool here = ((falling >> dim) & 1U) != 0;
      Mark& mark = marks[v];
      if (mark.stamp != epoch) {
        mark.stamp = epoch;
        mark.h = static_cast<std::uint8_t>(here ? h - 1 : h + 1);
        mark.row = static_cast<std::uint16_t>(dim < m ? row : row ^ (1U << y));
      } else if ((mark.bits & SearchScratch::kClosed) != 0 || !here ||
                 (mark.bits & SearchScratch::kBucket) == bucket) {
        continue;  // closed, already open at f, or no nearer via u
      }
      // New, or open at f + 2 and now reached at f: (re)push with parent u.
      mark.bits = static_cast<std::uint8_t>(
          dim | (here ? bucket : bucket ^ SearchScratch::kBucket));
      if (here) {
        open[open_size++] = static_cast<std::uint32_t>(v);
      } else {
        later[later_size++] = static_cast<std::uint32_t>(v);
      }
    }
  }
}

}  // namespace

namespace detail {

unsigned distance(unsigned m, Node v, Node t) {
  return distance_table(m).distance[distance_index(m, v, t)];
}

unsigned falling_dimensions(unsigned m, Node v, Node t) {
  return distance_table(m).falling[distance_index(m, v, t)];
}

}  // namespace detail

query::RouteResult AdaptiveRouter::route(const query::PairQuery& query,
                                         const RouteLimits& limits) const {
  static const FaultModel kNoFaults;
  const FaultModel& faults = query.faults != nullptr ? *query.faults : kNoFaults;
  const core::HhcTopology& net = cache_.net();
  const Node s = query.s;
  const Node t = query.t;

  RouterScratch& scratch = tls_router_scratch();
  // Read to the end of the route: nothing below reads another snapshot.
  const ActiveFaults& active = faults.snapshot(query.time);

  query::RouteResult result;
  if (active.node_faulty(s) || active.node_faulty(t)) {
    return result;  // a dead endpoint is disconnection, not an error
  }
  if (s == t) {
    result.paths = {Path{s}};
    result.level = query::DegradationLevel::kGuaranteed;
    return result;
  }

  // Stage boundary: an already-expired query must not pay for a container
  // lookup (which may run the whole construction on a cache miss).
  if (util::should_stop(query.deadline, query.cancel)) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }

  {
    obs::TraceSpan span{obs::stages::kContainerScan};
    result.container_paths_blocked =
        core::OrbitTable::covers(net.m())
            ? cache_.scan(s, t, scratch.usable.project(active, net),
                          result.paths, &result.cache_hit)
            : select_survivor(cache_.lookup(s, t, &result.cache_hit), active,
                              result.paths);
  }
  if (!result.paths.empty()) {
    result.level = query::DegradationLevel::kGuaranteed;
    return result;
  }

  // The scan found no survivor, and no sweep runs: either the service told
  // us the sweep is too expensive right now (degraded admission), or the
  // topology is beyond the node-indexed sweep state (m > 4, 2^37 nodes).
  // The kDisconnected verdict is best-effort, so the outcome says kShed,
  // not kOk.
  if (limits.skip_fallback || !core::OrbitTable::covers(net.m())) {
    result.outcome = query::RouteOutcome::kShed;
    return result;
  }
  // Stage boundary before committing a worker to the survivor sweep.
  if (util::should_stop(query.deadline, query.cancel)) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }

  result.used_fallback = true;
  obs::TraceSpan span{obs::stages::kBfsFallback};
  // A shortest detour is as short searched from either end: start from
  // the more damaged one, ties to s (the header says why).
  const std::uint8_t* const usable = scratch.usable.project(active, net);
  const bool from_t = falling_reach(net.m(), t, s, usable) <
                      falling_reach(net.m(), s, t, usable);
  SearchWork work;
  Path detour = survivor_search(net, from_t ? t : s, from_t ? s : t, usable,
                                scratch.search, query, work);
  if (from_t) std::reverse(detour.begin(), detour.end());
  result.search_from_t = from_t;
  result.search_expansions = work.search_expansions;
  result.guard_expansions = work.guard_expansions;
  if (work.timed_out) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }
  result.level = detour.empty() ? query::DegradationLevel::kDisconnected
                                : query::DegradationLevel::kBestEffort;
  if (!detour.empty()) result.paths.push_back(std::move(detour));
  return result;
}

}  // namespace hhc::fault
