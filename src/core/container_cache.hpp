// Sharded, translation-canonical memoization of disjoint-path containers
// with a LOCK-FREE read path, backed at m <= 4 by one container per
// automorphism orbit (core::OrbitTable).
//
// The construction commutes with cluster translation (tested metamorphically
// in test_hhc_disjoint.cpp): the container for (Xs, Ys) -> (Xt, Yt) is the
// container for (0, Ys) -> (Xs ^ Xt, Yt) with every cluster label XOR-ed by
// Xs. A cache keyed on the canonical triple (Xs ^ Xt, Ys, Yt) — plus the
// ConstructionOptions, since different option sets build different
// containers — therefore serves ALL translated copies of a pair, turning
// repeated-workload simulations (hotspot traffic, permutation re-runs,
// retransmissions) into cache hits followed by an O(container size) relabel.
//
// Where an entry comes from. At m <= 4 the cache owns one OrbitTable per
// ConstructionOptions variant (allocated on first use). A miss decodes its
// triple's container from the orbit record instead of constructing, so the
// served container is the automorphism image of the orbit
// representative's construction: m+1 internally disjoint paths with the
// representative's lengths, equal to node_disjoint_paths(net, s, t, options)
// bit for bit only when (s, t) is the representative (orbit_table.hpp). The
// orbit's σ depends only on the triple, so the XOR relabel stays exact and
// lookup(), materialize() and PathService::answer() agree on every pair. At
// m = 5 a miss runs the construction, and entries equal it bit for bit.
//
// Concurrency model (DESIGN.md §9):
//
//   * m <= 4: the class tier (orbit_table.hpp). lookup() probes the
//     OrbitTable's insert-only array of translation-class entries with
//     acquire loads, and a hit BORROWS the entry: no lock, no shared write,
//     no refcount, no allocation. A miss flattens the orbit record and
//     publishes the entry with one CAS; racing misses of one class publish
//     one entry and serve it to both. Entries live as long as the cache.
//     The tier holds at most shards x max_entries_per_shard classes when
//     the cache is capped, else every class at m <= 3 and 2^16 at m = 4;
//     past that, lookup() decodes an owning copy and publishes nothing.
//   * m = 5: RCU-style published snapshots. Each shard PUBLISHES an
//     immutable ShardIndex, an open-addressing table of (key, shared
//     FlatContainer) slots, and bumps its atomic version counter on each
//     publication. Every thread keeps a version-stamped shared_ptr to its
//     last-seen snapshot in TLS (keyed by a never-reused shard id), so a
//     hit is one acquire load of the version plus a probe of the pinned
//     snapshot. (Not std::atomic<std::shared_ptr>: libstdc++ takes an
//     internal spin lock, a shared WRITE, on every load, and TSan reports
//     its relaxed unlock as a race.) A miss runs the construction outside
//     any lock, then, under the shard mutex, clones the index (evicting a
//     seeded random resident when the shard is full), inserts, swaps and
//     bumps the version. A swapped-out index lives until the last TLS pin
//     moves on; the FlatContainers inside are shared with every handle.
//   * Hit/miss counters are per-thread striped cells (util::StripedCounter)
//     folded on stats()/hits()/misses(). At m <= 4 they count whether the
//     orbit record was already filled, for every entry point; at m = 5
//     they count index probes. Evictions are counted under the shard mutex.
//
// clear() empties every shard index and resets ALL counters. The orbit
// tables and their class tiers stay: their entries are immutable, never
// evicted, and may be lent out or read concurrently.
//
// API contract: lookup() is THE zero-copy read path, a ContainerHandle
// relabeled lazily: borrowed at m <= 4, owning at m = 5 (see its lifetime
// contract). materialize() is the owning path: at m <= 4 it decodes
// straight from the orbit record into owning paths. scan() is
// fault::AdaptiveRouter's container scan at m <= 4: it checks the orbit
// record in place against usable-edge bytes and decodes only the path it
// delivers. flatten() copies a lookup() into caller buffers (m = 5).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/disjoint.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"
#include "util/striped.hpp"

namespace hhc::core {

class OrbitTable;  // core/orbit_table.hpp

/// A disjoint-path container flattened into two arrays: `nodes` holds every
/// path back to back, `offsets` (path_count + 1 entries) delimits them.
/// Immutable once published.
struct FlatContainer {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> offsets;  // paths[i] = nodes[offsets[i], offsets[i+1])
};

/// Writes `set` into `nodes` and `offsets` (both overwritten) in the
/// FlatContainer layout.
void flatten(const DisjointPathSetRef& set, std::vector<Node>& nodes,
             std::vector<std::uint32_t>& offsets);

/// A zero-copy view of a cached container, relabeled lazily.
///
/// The construction commutes with cluster translation, and in the packed
/// node encoding (X << m | Y) that translation is a single XOR:
///   encode(cluster_of(v) ^ Xs, position_of(v)) == v ^ (Xs << m).
/// So a handle is {FlatContainer pointer, owner, XOR mask}, and node()
/// applies the mask on the fly: one load and one XOR.
///
/// Lifetime contract. A BORROWED handle (no owner: a lookup() served from
/// the m <= 4 class tier, or PathService's self-loop view) is valid while
/// the ContainerCache it came from (or its PathService) lives; it touches
/// no refcount. An OWNING handle (m = 5, or a class past the tier's
/// capacity) shares ownership of its container and stays valid, with the
/// same bits, after eviction, clear(), and the cache's destruction.
/// materialize() produces the same owning DisjointPathSet as
/// ContainerCache::materialize() for the handle's pair.
class ContainerHandle {
 public:
  ContainerHandle() = default;
  /// Borrowed: `flat` must outlive the handle.
  ContainerHandle(const FlatContainer* flat, Node xor_mask) noexcept
      : flat_{flat}, mask_{xor_mask} {}
  /// Owning: shares ownership of `flat`.
  ContainerHandle(std::shared_ptr<const FlatContainer> flat,
                  Node xor_mask) noexcept
      : flat_{flat.get()}, owner_{std::move(flat)}, mask_{xor_mask} {}

  [[nodiscard]] bool valid() const noexcept { return flat_ != nullptr; }
  [[nodiscard]] bool borrowed() const noexcept {
    return flat_ != nullptr && owner_ == nullptr;
  }
  [[nodiscard]] std::size_t path_count() const noexcept {
    return flat_ == nullptr ? 0 : flat_->offsets.size() - 1;
  }
  /// Number of nodes on path i (its length in edges + 1).
  [[nodiscard]] std::size_t path_size(std::size_t i) const noexcept {
    return flat_->offsets[i + 1] - flat_->offsets[i];
  }
  /// Node j of path i, relabeled into the handle's translation.
  [[nodiscard]] Node node(std::size_t i, std::size_t j) const noexcept {
    return flat_->nodes[flat_->offsets[i] + j] ^ mask_;
  }
  [[nodiscard]] Node source() const noexcept { return node(0, 0); }
  [[nodiscard]] Node target() const noexcept {
    return node(0, path_size(0) - 1);
  }

  /// Length (in edges) of the longest path.
  [[nodiscard]] std::size_t max_length() const noexcept;
  /// Deep copy of path i as an owning Path.
  [[nodiscard]] Path materialize_path(std::size_t i) const;
  /// Deep copy of the whole container as an owning DisjointPathSet.
  [[nodiscard]] DisjointPathSet materialize() const;

 private:
  const FlatContainer* flat_ = nullptr;
  std::shared_ptr<const FlatContainer> owner_;  // null when borrowed
  Node mask_ = 0;
};

struct StatRow;  // core/io.hpp

/// Point-in-time per-shard state (shard indexes serve m = 5 only). Hit/miss
/// counters are cache-global; what a shard owns is its resident entries
/// and its eviction count.
struct CacheShardStats {
  std::size_t entries = 0;
  std::size_t evictions = 0;
};

/// Aggregate + per-shard snapshot, as returned by ContainerCache::stats().
/// All counters are folded/read at one point in time (one clock).
struct CacheStats {
  std::size_t entries = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::vector<CacheShardStats> shards;
  /// The orbit tables (m <= 4): option variants allocated so far, records
  /// filled and classes published in their tiers across them, and the
  /// bytes those tables occupy.
  std::size_t orbit_variants = 0;
  std::size_t orbit_entries = 0;
  std::size_t orbit_bytes = 0;
  std::size_t tier_entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// The snapshot as unified core::StatRow rows (section "cache" for the
  /// aggregate, "cache.shard<i>" per shard, then "cache.orbit" with the
  /// variants, entries, bytes and tier_entries rows) so cache telemetry
  /// renders with the same core::io schema as service stats and the
  /// metrics registry.
  [[nodiscard]] std::vector<StatRow> rows() const;
};

class ContainerCache {
 public:
  struct Config {
    /// Default construction knobs; per-call overrides key separate entries.
    ConstructionOptions options{};
    /// Number of independent shards (rounded up to a power of two, >= 1).
    std::size_t shards = 16;
    /// Per-shard entry cap; 0 = unbounded. When full, one UNIFORMLY RANDOM
    /// resident entry is displaced per insert (drawn from a per-shard
    /// seeded util::Xoshiro256, so runs are reproducible) and counted as an
    /// eviction. Random replacement is cheap and good enough for the
    /// skewed workloads the cache exists for. The O(capacity) index clone
    /// each publication pays is comparable to the construction the miss
    /// just ran. At m <= 4 there are no shard entries; a cap bounds the
    /// class tier at shards x max_entries_per_shard classes instead.
    std::size_t max_entries_per_shard = 0;
    /// Seed for the per-shard eviction RNGs (each shard derives its own
    /// stream, so eviction choices are deterministic per configuration).
    std::uint64_t eviction_seed = 0x9d1f2c3b4a596877ULL;
    /// Publication knob: slots pre-sized into each shard's FIRST published
    /// index (rounded up to a power of two). A good guess (≈ 2x the
    /// expected resident entries) avoids the first few grow-republish
    /// cycles; 0 picks a small default. Capped shards size themselves off
    /// max_entries_per_shard regardless.
    std::size_t initial_index_capacity = 0;
    /// Publication knob: per-index load-factor ceiling in percent (the
    /// probe-length / memory trade). An insert that would push occupancy
    /// past this grows the cloned table to the next power of two.
    std::size_t max_load_percent = 50;
  };

  /// The topology is held by reference (like sim::NetworkSimulator and every
  /// other consumer): the caller keeps it alive for the cache's lifetime.
  /// (Two overloads rather than `Config config = {}`: gcc rejects a nested
  /// class's default member initializers in a default argument while the
  /// enclosing class is still open.)
  explicit ContainerCache(const HhcTopology& net);
  ContainerCache(const HhcTopology& net, Config config);
  ~ContainerCache();

  ContainerCache(const ContainerCache&) = delete;
  ContainerCache& operator=(const ContainerCache&) = delete;

  /// THE read path. A steady-state hit performs no construction, no node
  /// copying, no heap allocation, and takes NO lock. At m <= 4 it probes
  /// the class tier and returns a borrowed handle, writing only a
  /// per-thread counter; a class past the tier's capacity gets an owning
  /// decode. At m = 5 it probes the thread's pinned shard snapshot and
  /// returns an owning handle (one shared refcount increment); a miss runs
  /// the construction and publishes a new index under the shard mutex. If `cache_hit` is non-null it
  /// receives whether this call was served without running the
  /// construction, which is what hits()/misses() count.
  /// Throws std::invalid_argument for out-of-range nodes or s == t.
  [[nodiscard]] ContainerHandle lookup(Node s, Node t,
                                       const ConstructionOptions& options,
                                       bool* cache_hit = nullptr);
  /// Same, under the cache's default options.
  [[nodiscard]] ContainerHandle lookup(Node s, Node t);

  /// The owning answer for s -> t: the container lookup(s, t, options)
  /// would hand out, materialized. At m <= 4 it is decoded straight from
  /// the orbit record into owning paths; at m = 5 it is
  /// lookup(...).materialize(). Counts and sets `cache_hit` as lookup().
  /// A steady-state call allocates only its result.
  /// Throws std::invalid_argument for out-of-range nodes or s == t.
  [[nodiscard]] DisjointPathSet materialize(Node s, Node t,
                                            const ConstructionOptions& options,
                                            bool* cache_hit = nullptr);

  /// The container lookup(s, t, options) hands out, copied into
  /// caller-owned buffers as in FlatContainer: `nodes` holds every path
  /// back to back and `offsets` (path_count + 1 entries) delimits them;
  /// both are overwritten. Counts and throws as lookup() does.
  void flatten(Node s, Node t, const ConstructionOptions& options,
               std::vector<Node>& nodes, std::vector<std::uint32_t>& offsets,
               bool* cache_hit = nullptr);

  /// OrbitTable::scan of the container materialize() would return; counts
  /// and sets `cache_hit` as lookup() does. Throws std::invalid_argument
  /// at m > 4 and where lookup() does.
  unsigned scan(Node s, Node t, const ConstructionOptions& options,
                const std::uint8_t* usable, std::vector<Path>& paths,
                bool* cache_hit = nullptr);

  [[nodiscard]] std::size_t hits() const { return hits_.fold(); }
  [[nodiscard]] std::size_t misses() const { return misses_.fold(); }
  [[nodiscard]] std::size_t evictions() const noexcept;
  /// Total resident entries across shard indexes (m = 5; the class tier is
  /// CacheStats::tier_entries). Observability path: takes each shard mutex.
  [[nodiscard]] std::size_t size() const;
  /// Per-shard + aggregate snapshot, folded at one point in time.
  [[nodiscard]] CacheStats stats() const;

  /// Drops every index entry AND resets all counters; the orbit tables and
  /// their class tiers stay (see header comment).
  void clear();

  [[nodiscard]] const ConstructionOptions& options() const noexcept {
    return config_.options;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const HhcTopology& net() const noexcept { return net_; }

 private:
  struct Key {
    std::uint64_t xdiff;
    std::uint64_t ys;
    std::uint64_t yt;
    std::uint8_t ordering;
    std::uint8_t selection;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.xdiff * 0x9e3779b97f4a7c15ULL;
      h ^= (k.ys << 17) ^ (k.yt << 3) ^ (h >> 31);
      h ^= (std::uint64_t{k.ordering} << 11) ^ (std::uint64_t{k.selection} << 7);
      return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };

  /// One published, immutable generation of a shard: an open-addressing
  /// (linear-probe) table over power-of-two slots. value == nullptr marks
  /// an empty slot. Never mutated after publication; writers clone.
  struct ShardIndex {
    struct Slot {
      Key key{};
      std::shared_ptr<const FlatContainer> value;
    };
    std::vector<Slot> slots;
    std::size_t size = 0;

    [[nodiscard]] const std::shared_ptr<const FlatContainer>* find(
        const Key& key) const noexcept {
      if (slots.empty()) return nullptr;
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = KeyHash{}(key) & mask;; i = (i + 1) & mask) {
        const Slot& slot = slots[i];
        if (slot.value == nullptr) return nullptr;
        if (slot.key == key) return &slot.value;
      }
    }
    /// Build-side insert (pre-publication only; capacity is guaranteed by
    /// the builder, which keeps occupancy under the load ceiling).
    void insert(const Key& key, std::shared_ptr<const FlatContainer> value);
  };

  struct Shard {
    /// Process-unique, never reused: keys each thread's TLS snapshot cache
    /// (see snapshot()). Stale TLS entries for destroyed caches are inert
    /// because their ids are never issued again.
    const std::uint64_t id = next_shard_id();
    /// Bumped (release) on every publication. The acquire load validating
    /// a thread's TLS stamp against this counter is the entire
    /// shared-memory footprint of a steady-state hit.
    std::atomic<std::uint64_t> version{0};
    /// Guards `index`, the eviction RNG, and publication. Taken by writers
    /// (build-then-swap) and by a reader's one-shared_ptr-copy refresh
    /// after a publication; never by a steady-state hit.
    std::mutex mutex;
    std::shared_ptr<const ShardIndex> index;  // current published snapshot
    util::Xoshiro256 eviction_rng;            // guarded by mutex
    std::atomic<std::size_t> evictions{0};    // bumped under mutex
  };

  [[nodiscard]] static std::uint64_t next_shard_id() noexcept;

  /// The orbit table for `options`, allocated on first use; nullptr at
  /// m > OrbitTable::kMaxM.
  [[nodiscard]] OrbitTable* orbit_table(const ConstructionOptions& options);
  /// Validates s -> t (throws as lookup() does).
  void check(Node s, Node t) const;
  /// Bumps hits_ or misses_ and reports `hit` through `cache_hit`.
  void count(bool hit, bool* cache_hit);

  /// This thread's pinned snapshot of `shard`, refreshed (under the shard
  /// mutex) only when the version stamp says a publication happened. The
  /// returned pointer stays valid until this thread's next lookup on the
  /// same shard; it may be one publication stale, which is fine: the miss
  /// path re-probes the live index under the mutex before constructing.
  [[nodiscard]] const ShardIndex* snapshot(Shard& shard) const;

  /// Clones `old` (skipping `victim`, if any), inserts (key, value), and
  /// returns the new index. Pure build; caller publishes under the writer
  /// mutex.
  [[nodiscard]] std::shared_ptr<const ShardIndex> rebuild_index(
      const ShardIndex* old, std::size_t victim, const Key& key,
      std::shared_ptr<const FlatContainer> value) const;

  const HhcTopology& net_;
  Config config_;
  // unique_ptr because Shard (atomics + mutex) is neither movable nor
  // copyable; the vector itself is immutable after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Cache-global striped hit/miss cells: the lock-free read path's only
  // telemetry writes, folded on stats().
  util::StripedCounter hits_;
  util::StripedCounter misses_;
  // One orbit table per (ordering, selection) pair, published by CAS.
  std::array<std::atomic<OrbitTable*>, 4> orbit_tables_{};
};

}  // namespace hhc::core
