// Translation-canonical memoization of disjoint-path containers with a
// LOCK-FREE read path, backed at m <= 4 by one container per automorphism
// orbit (core::OrbitTable).
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
// Where an entry comes from. At m <= 4 each ConstructionOptions variant has
// an OrbitTable, and a miss decodes its triple's container from the orbit
// record instead of constructing, so the served container is the
// automorphism image of the orbit representative's construction: m+1
// internally disjoint paths with the representative's lengths, equal to
// node_disjoint_paths(net, s, t, options) bit for bit only when (s, t) is
// the representative (orbit_table.hpp). The orbit's σ depends only on the
// triple, so the XOR relabel stays exact and lookup(), materialize() and
// PathService::answer() agree on every pair. At m = 5 a miss runs the
// construction, and entries equal it bit for bit.
//
// One store (DESIGN.md §9). Each variant keeps one ClassStore, an
// insert-only array of translation-class entries. lookup() probes it with
// acquire loads, and a hit BORROWS the entry: no lock, no shared write, no
// refcount, no allocation. A miss reserves a place under the capacity,
// fills the entry (orbit decode at m <= 4, construction at m = 5) and
// publishes it with one CAS; racing misses of one class publish one entry
// and serve it to both. Entries are never evicted and live as long as the
// cache. A capped cache holds shards x max_entries_per_shard classes per
// variant, an uncapped one min(classes, 2^16); past that, lookup() fills an
// owning copy and publishes nothing.
//
// Hit/miss counters are per-thread striped cells (util::StripedCounter)
// folded on stats()/hits()/misses(). A call counts as a hit when it ran no
// construction: at m <= 4 when the orbit record was already filled, at
// m = 5 when the store held the class. clear() resets the counters only.
//
// API contract: lookup() is THE zero-copy read path, a ContainerHandle
// relabeled lazily (see its lifetime contract). materialize() is the
// owning path: at m <= 4 it decodes straight from the orbit record into
// owning paths. scan() is fault::AdaptiveRouter's container scan at m <= 4:
// it checks the orbit record in place against usable-edge bytes and
// decodes only the path it delivers. flatten() copies a lookup() into
// caller buffers (m = 5).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/disjoint.hpp"
#include "core/topology.hpp"
#include "util/striped.hpp"

namespace hhc::core {

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
/// the cache's store, or PathService's self-loop view) is valid while the
/// ContainerCache it came from (or its PathService) lives; it touches no
/// refcount. An OWNING handle (a class past the store's capacity) shares
/// ownership of its container and stays valid, with the same bits, after
/// the cache's destruction.
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

/// One option variant's container store: an insert-only open-addressing
/// array of atomic entry pointers, keyed by the packed translation class
/// (ΔX << 2m) | (Ys << m) | Yt. A probe is acquire loads. A writer
/// reserves a place under the capacity, builds its entry, and publishes it
/// with one CAS. Entries are immutable and live as long as the store.
class ClassStore {
 public:
  struct Entry {
    std::uint64_t key = 0;
    FlatContainer flat;  // from (0, Ys) to (ΔX, Yt)
  };

  /// Holds at most `capacity` entries, in twice as many slots.
  explicit ClassStore(std::size_t capacity);
  ~ClassStore();

  ClassStore(const ClassStore&) = delete;
  ClassStore& operator=(const ClassStore&) = delete;

  /// The published container for `key`, or nullptr.
  [[nodiscard]] const FlatContainer* find(std::uint64_t key) const noexcept;
  /// Reserves the place one publish() needs; false, reserving nothing,
  /// when the store is full.
  [[nodiscard]] bool reserve() noexcept;
  /// Publishes `entry` into a place reserve() granted and returns the
  /// published container for its key. When another entry for the key got
  /// there first (it is identical: fills are deterministic), `entry` is
  /// freed, its reservation returned, and the winner's container served.
  const FlatContainer* publish(std::unique_ptr<Entry> entry) noexcept;
  /// Published entries plus places reserved by fills in progress.
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::size_t capacity_;
  std::size_t slot_count_;
  unsigned shift_;  // 64 - log2(slot_count_)
  std::unique_ptr<std::atomic<const Entry*>[]> slots_;
  std::atomic<std::size_t> size_{0};
};

struct StatRow;  // core/io.hpp

/// Aggregate snapshot, as returned by ContainerCache::stats(). All counters
/// are folded/read at one point in time (one clock).
struct CacheStats {
  /// Store entries across option variants.
  std::size_t entries = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Always 0 and left out of rows(): the store never evicts. perfbench
  /// derives cache.evictions_per_query from it, so it stays while that
  /// metric does.
  std::size_t evictions = 0;
  /// The orbit tables (m <= 4): option variants allocated so far, records
  /// filled across them, and the bytes those tables occupy.
  std::size_t orbit_variants = 0;
  std::size_t orbit_entries = 0;
  std::size_t orbit_bytes = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// The snapshot as unified core::StatRow rows (section "cache" for the
  /// aggregate, then "cache.orbit" with the variants, entries and bytes
  /// rows) so cache telemetry renders with the same core::io schema as
  /// service stats and the metrics registry.
  [[nodiscard]] std::vector<StatRow> rows() const;
};

class ContainerCache {
 public:
  struct Config {
    /// Default construction knobs; per-call overrides key separate entries.
    ConstructionOptions options{};
    /// The two factors of the store's capacity: a capped cache
    /// (max_entries_per_shard > 0) holds shards x max_entries_per_shard
    /// classes per option variant; an uncapped one holds every class up
    /// to 2^16. A shard count of 0 counts as 1.
    std::size_t shards = 16;
    std::size_t max_entries_per_shard = 0;
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
  /// copying, no heap allocation, and takes NO lock: it probes the store
  /// and returns a borrowed handle, writing only a per-thread counter. A
  /// miss fills the entry and publishes it; a class past the store's
  /// capacity gets an owning copy. If `cache_hit` is non-null it receives
  /// whether this call was served without running the construction, which
  /// is what hits()/misses() count.
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
  /// Store entries across option variants.
  [[nodiscard]] std::size_t size() const noexcept;
  /// Aggregate snapshot, folded at one point in time.
  [[nodiscard]] CacheStats stats() const;

  /// Resets the hit and miss counters. Entries and orbit records stay:
  /// they are immutable, never evicted, and may be lent out or read
  /// concurrently.
  void clear();

  [[nodiscard]] const ConstructionOptions& options() const noexcept {
    return config_.options;
  }
  [[nodiscard]] const HhcTopology& net() const noexcept { return net_; }

 private:
  struct Variant;  // {ClassStore, OrbitTable at m <= 4}

  /// The variant for `options`, allocated on first use.
  [[nodiscard]] Variant& variant(const ConstructionOptions& options);
  /// Writes the container of class (ΔX, Ys, Yt) into `flat`; returns
  /// whether no construction ran.
  bool fill(Variant& variant, std::uint64_t xdiff, std::uint64_t ys,
            std::uint64_t yt, const ConstructionOptions& options,
            FlatContainer& flat);
  /// Validates s -> t (throws as lookup() does).
  void check(Node s, Node t) const;
  /// Bumps hits_ or misses_ and reports `hit` through `cache_hit`.
  void count(bool hit, bool* cache_hit);

  const HhcTopology& net_;
  Config config_;
  std::size_t capacity_;  // per variant
  // Cache-global striped hit/miss cells: the lock-free read path's only
  // telemetry writes, folded on stats().
  util::StripedCounter hits_;
  util::StripedCounter misses_;
  // One variant per (ordering, selection) pair, published by CAS.
  std::array<std::atomic<Variant*>, 4> variants_{};
};

}  // namespace hhc::core
