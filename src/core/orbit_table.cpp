#include "core/orbit_table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"

namespace hhc::core {

namespace {

// Record layout: the 4-byte key, m + 1 path-length bytes, then the hop
// codes of every path back to back, two per byte, low nibble first.
constexpr std::size_t kKeyBytes = 4;

std::uint32_t key_of(const std::uint8_t* record) noexcept {
  std::uint32_t key;
  std::memcpy(&key, record, kKeyBytes);
  return key;
}

// Byte-wise tables for the bit permutation `move` of a `width`-bit word:
// table[byte * 256 + v] is where the bits of byte `byte` holding v land.
template <typename Move>
void fill_moves(unsigned width, Move move, std::uint16_t* table) {
  const unsigned bytes = (width + 7) / 8;
  for (unsigned byte = 0; byte < bytes; ++byte) {
    for (unsigned v = 0; v < 256; ++v) {
      std::uint16_t image = 0;
      for (unsigned q = 0; q < 8 && 8 * byte + q < width; ++q) {
        if ((v >> q) & 1U) {
          image = static_cast<std::uint16_t>(image | (1U << move(8 * byte + q)));
        }
      }
      table[byte * 256 + v] = image;
    }
  }
}

std::uint32_t apply_moves(const std::uint16_t* table,
                          std::uint64_t word) noexcept {
  return std::uint32_t{table[word & 0xFF]} | table[256 + ((word >> 8) & 0xFF)];
}

}  // namespace

const OrbitTable::Forms& OrbitTable::forms(unsigned m) {
  if (!covers(m)) throw std::invalid_argument("OrbitTable: m > 4");
  static const std::array<Forms, kMaxM + 1> all = [] {
    std::array<Forms, kMaxM + 1> built;
    for (unsigned n = 1; n <= kMaxM; ++n) {
      Forms& f = built[n];
      const unsigned width = 1U << n;  // bits of a cluster label
      const std::size_t positions = std::size_t{1} << n;
      std::vector<std::uint8_t> perms;  // perms[k*n + i] = σ_k(i)
      // σ permutes the first n entries of the whole identity array. gcc 12
      // at -O3 turns an iota over exactly n bytes into an 8-byte store and
      // flags it (-Wstringop-overflow); filling all kMaxM entries does not.
      std::array<std::uint8_t, kMaxM> sigma{};
      std::iota(sigma.begin(), sigma.end(), std::uint8_t{0});
      const auto first = sigma.begin();
      const auto last = first + n;
      do {
        perms.insert(perms.end(), first, last);
      } while (std::next_permutation(first, last));
      f.count = perms.size() / n;

      f.sigma_y.resize(f.count * positions);
      f.sigma_moves.resize(f.count * 2 * 256);
      f.flips.resize(f.count * 16);
      for (std::size_t k = 0; k < f.count; ++k) {
        const std::uint8_t* p = perms.data() + k * n;
        const auto on_index = [&](std::uint64_t j) {
          unsigned image = 0;
          for (unsigned i = 0; i < n; ++i) {
            if ((j >> i) & 1U) image |= 1U << p[i];
          }
          return image;
        };
        // Code σ(i) in the representative is dimension i for the pair.
        for (unsigned i = 0; i < n; ++i) f.flips[k * 16 + p[i]] = Node{1} << i;
        for (std::size_t y = 0; y < positions; ++y) {
          f.sigma_y[k * positions + y] = static_cast<std::uint8_t>(on_index(y));
        }
        fill_moves(width, on_index, f.sigma_moves.data() + k * 2 * 256);
      }
      f.ys_moves.resize(positions * 2 * 256);
      for (std::size_t ys = 0; ys < positions; ++ys) {
        fill_moves(
            width, [ys](unsigned j) { return static_cast<unsigned>(j ^ ys); },
            f.ys_moves.data() + ys * 2 * 256);
      }
    }
    return built;
  }();
  return all[m];
}

OrbitTable::OrbitTable(const HhcTopology& net, ConstructionOptions options)
    : net_{net}, options_{options}, m_{net.m()}, forms_{forms(net.m())} {
  // The array stays at most half full with every orbit filled.
  slot_count_ = std::bit_ceil(2 * kOrbitCounts[m_]);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slot_count_));
  slots_ = std::make_unique<std::atomic<const std::uint8_t*>[]>(slot_count_);
}

OrbitTable::~OrbitTable() {
  for (std::size_t i = 0; i < slot_count_; ++i) {
    delete[] slots_[i].load(std::memory_order_relaxed);
  }
}

OrbitTable::Canonical OrbitTable::canonical(std::uint64_t xdiff,
                                            std::uint64_t ys,
                                            std::uint64_t yt) const noexcept {
  // With c = σ(Ys), bit j of ΔX moves to σ(j) ^ σ(Ys) = σ(j ^ Ys): first
  // move it to j ^ Ys (shared by every σ), then apply σ.
  const std::uint32_t moved =
      apply_moves(forms_.ys_moves.data() + ys * 2 * 256, xdiff);
  const std::uint64_t y = ys ^ yt;
  const std::size_t positions = std::size_t{1} << m_;
  Canonical best{~std::uint32_t{0}, 0};
  for (std::size_t k = 0; k < forms_.count; ++k) {
    const std::uint32_t key =
        (apply_moves(forms_.sigma_moves.data() + k * 2 * 256, moved) << m_) |
        forms_.sigma_y[k * positions + y];
    if (key < best.key) best = {key, static_cast<std::uint8_t>(k)};
  }
  return best;
}

std::size_t OrbitTable::bytes() const noexcept {
  return slot_count_ * sizeof(slots_[0]) +
         record_bytes_.load(std::memory_order_relaxed);
}

std::unique_ptr<std::uint8_t[]> OrbitTable::build(std::uint32_t key,
                                                  std::size_t& size) const {
  static obs::Histogram& construct_hist =
      obs::stage_histogram(obs::stages::kConstruct);
  obs::TraceSpan span{obs::stages::kConstruct, &construct_hist};
  const DisjointPathSetRef set = node_disjoint_paths(
      net_, Node{0}, Node{key}, options_, tls_construction_scratch());
  std::size_t hops = 0;
  for (const PathRef path : set.paths) hops += path.size() - 1;
  size = kKeyBytes + set.paths.size() + (hops + 1) / 2;
  auto record = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  std::memcpy(record.get(), &key, kKeyBytes);
  std::uint8_t* const lengths = record.get() + kKeyBytes;
  std::uint8_t* const codes = lengths + set.paths.size();
  const Node y_mask = net_.cluster_size() - 1;
  std::size_t hop = 0;
  unsigned low = 0;  // the even hop's code, waiting for its odd partner
  for (std::size_t p = 0; p < set.paths.size(); ++p) {
    const PathRef path = set.paths[p];
    if (path.size() - 1 > 0xFF) {
      throw std::logic_error("OrbitTable: path longer than 255 hops");
    }
    lengths[p] = static_cast<std::uint8_t>(path.size() - 1);
    for (std::size_t j = 1; j < path.size(); ++j, ++hop) {
      const Node flip = path[j - 1] ^ path[j];
      // Branch-free, as in decode_path.
      const unsigned external = flip > y_mask ? 1U : 0U;
      const unsigned code =
          (static_cast<unsigned>(std::countr_zero(flip)) & (external - 1)) |
          (kExternal & (0U - external));
      if ((hop & 1) == 0) {
        low = code;
      } else {
        codes[hop >> 1] = static_cast<std::uint8_t>(low | (code << 4));
      }
    }
  }
  if ((hop & 1) != 0) codes[hop >> 1] = static_cast<std::uint8_t>(low);
  return record;
}

const std::uint8_t* OrbitTable::record(std::uint32_t key, bool* hit) {
  const std::size_t mask = slot_count_ - 1;
  std::size_t i = slot_of(key, shift_);
  for (;; i = (i + 1) & mask) {
    const std::uint8_t* found = slots_[i].load(std::memory_order_acquire);
    if (found == nullptr) break;
    if (key_of(found) == key) {
      if (hit != nullptr) *hit = true;
      return found;
    }
  }
  if (hit != nullptr) *hit = false;

  std::size_t size = 0;
  std::unique_ptr<std::uint8_t[]> mine = build(key, size);
  // Publish at the first empty slot of the probe sequence. Another thread
  // may fill that slot first: with the same key it built the identical
  // record (serve the winner's, drop ours); with another key, probe on.
  for (;; i = (i + 1) & mask) {
    const std::uint8_t* expected = nullptr;
    if (slots_[i].compare_exchange_strong(expected, mine.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      static obs::Counter& fills =
          obs::MetricRegistry::global().counter("construct.orbit_fills");
      fills.inc();
      entries_.fetch_add(1, std::memory_order_relaxed);
      record_bytes_.fetch_add(size, std::memory_order_relaxed);
      return mine.release();
    }
    if (key_of(expected) == key) return expected;
  }
}

OrbitTable::Served OrbitTable::serve(Node s, Node t, bool* hit) {
  const std::uint64_t ys = net_.position_of(s);
  const Canonical form = canonical(net_.cluster_of(s) ^ net_.cluster_of(t), ys,
                                   net_.position_of(t));
  return {record(form.key, hit), forms_.flips.data() + std::size_t{form.sigma} * 16};
}

std::size_t OrbitTable::decode_path(const std::uint8_t* record,
                                    std::size_t hop, unsigned p,
                                    const Node* flips, Node s,
                                    Node* out) const noexcept {
  const std::uint8_t* const codes = record + kKeyBytes + m_ + 1;
  const std::size_t end = hop + record[kKeyBytes + p];
  const unsigned m = m_;
  Node v = s;
  // v's position, tracked apart from v so that each hop's update depends
  // on the previous hop through one XOR instead of a shift chain.
  Node y = net_.position_of(s);
  *out++ = v;
  const auto step = [&](unsigned code) {
    const Node flip = flips[code];  // 0 for an external hop
    // Branch-free: internal and external hops interleave unpredictably.
    const Node external = Node{0} - Node{code == kExternal};
    v ^= flip | (external & (Node{1} << (m + y)));
    y ^= flip;
    *out++ = v;
  };
  // A path may start on a high nibble; then whole bytes, then a low one.
  if (hop < end && (hop & 1) != 0) step(codes[hop++ >> 1] >> 4);
  for (; hop + 1 < end; hop += 2) {
    const unsigned pair = codes[hop >> 1];
    step(pair & 0xF);
    step(pair >> 4);
  }
  if (hop < end) step(codes[hop++ >> 1] & 0xFU);
  return end;
}

DisjointPathSet OrbitTable::materialize(Node s, Node t, bool* hit) {
  const Served served = serve(s, t, hit);
  DisjointPathSet set;
  set.paths.resize(m_ + 1);
  std::size_t hop = 0;
  for (unsigned p = 0; p <= m_; ++p) {
    set.paths[p].resize(std::size_t{served.record[kKeyBytes + p]} + 1);
    hop = decode_path(served.record, hop, p, served.flips, s,
                      set.paths[p].data());
  }
  return set;
}

void OrbitTable::flatten(Node s, Node t, std::vector<Node>& nodes,
                         std::vector<std::uint32_t>& offsets, bool* hit) {
  const Served served = serve(s, t, hit);
  offsets.resize(m_ + 2);
  offsets[0] = 0;
  for (unsigned p = 0; p <= m_; ++p) {
    offsets[p + 1] = offsets[p] + served.record[kKeyBytes + p] + 1;
  }
  nodes.resize(offsets[m_ + 1]);
  std::size_t hop = 0;
  for (unsigned p = 0; p <= m_; ++p) {
    hop = decode_path(served.record, hop, p, served.flips, s,
                      nodes.data() + offsets[p]);
  }
}

unsigned OrbitTable::scan(Node s, Node t, const std::uint8_t* usable,
                          std::vector<Path>& paths, bool* hit) {
  const Served served = serve(s, t, hit);
  const std::uint8_t* const lengths = served.record + kKeyBytes;
  const std::uint8_t* const codes = lengths + m_ + 1;
  unsigned blocked = 0;
  unsigned best = m_ + 1;  // none yet
  std::size_t best_hop = 0;
  for (std::size_t p = 0, hop = 0, end = 0; p <= m_; hop = end, ++p) {
    end = hop + lengths[p];
    Node v = s;
    Node y = net_.position_of(s);
    std::size_t j = hop;
    // As in decode_path; an external hop tests bit m instead of its flip.
    for (; j < end; ++j) {
      const unsigned code = (unsigned{codes[j >> 1]} >> ((j & 1) * 4)) & 0xFU;
      const Node flip = served.flips[code];
      const Node external = Node{0} - Node{code == kExternal};
      if ((usable[v] & (flip | (external & (Node{1} << m_)))) == 0) break;
      v ^= flip | (external & (Node{1} << (m_ + y)));
      y ^= flip;
    }
    if (j < end) {
      ++blocked;
    } else if (best > m_ || lengths[p] < lengths[best]) {
      best = static_cast<unsigned>(p);
      best_hop = hop;
    }
  }
  if (best <= m_) {
    decode_path(served.record, best_hop, best, served.flips, s,
                paths.emplace_back(std::size_t{lengths[best]} + 1).data());
  }
  return blocked;
}

}  // namespace hhc::core
