#include "core/container_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/io.hpp"
#include "core/orbit_table.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"

namespace hhc::core {

std::vector<StatRow> CacheStats::rows() const {
  std::vector<StatRow> rows;
  rows.reserve(8 + 2 * shards.size());
  rows.push_back(stat_scalar("cache", "entries", std::uint64_t{entries}));
  rows.push_back(stat_scalar("cache", "hits", std::uint64_t{hits}));
  rows.push_back(stat_scalar("cache", "misses", std::uint64_t{misses}));
  rows.push_back(stat_scalar("cache", "evictions", std::uint64_t{evictions}));
  rows.push_back(stat_scalar("cache", "hit_rate", hit_rate()));
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string section = "cache.shard" + std::to_string(i);
    rows.push_back(
        stat_scalar(section, "entries", std::uint64_t{shards[i].entries}));
    rows.push_back(
        stat_scalar(section, "evictions", std::uint64_t{shards[i].evictions}));
  }
  rows.push_back(
      stat_scalar("cache.orbit", "variants", std::uint64_t{orbit_variants}));
  rows.push_back(
      stat_scalar("cache.orbit", "entries", std::uint64_t{orbit_entries}));
  rows.push_back(stat_scalar("cache.orbit", "bytes", std::uint64_t{orbit_bytes}));
  rows.push_back(
      stat_scalar("cache.orbit", "tier_entries", std::uint64_t{tier_entries}));
  return rows;
}

namespace {

constexpr std::size_t kNoVictim = static_cast<std::size_t>(-1);

}  // namespace

ContainerCache::ContainerCache(const HhcTopology& net)
    : ContainerCache(net, Config{}) {}

ContainerCache::ContainerCache(const HhcTopology& net, Config config)
    : net_{net}, config_{config} {
  const std::size_t requested = config_.shards == 0 ? 1 : config_.shards;
  shards_.resize(std::bit_ceil(requested));
  // A load ceiling outside (10, 90] percent is a misconfiguration that
  // would either loop the grow logic or degrade probes to linear scans.
  config_.max_load_percent = std::clamp<std::size_t>(
      config_.max_load_percent == 0 ? 50 : config_.max_load_percent, 10, 90);
  // Each shard gets its own decorrelated eviction stream: deterministic
  // per (seed, shard index), independent across shards.
  util::SplitMix64 seeder{config_.eviction_seed};
  std::size_t capacity_hint = config_.initial_index_capacity;
  if (config_.max_entries_per_shard > 0) {
    // A capped shard's index plateaus at the cap; size it to hold the cap
    // within the load ceiling up front so such shards never grow at all.
    capacity_hint = std::max(
        capacity_hint,
        config_.max_entries_per_shard * 100 / config_.max_load_percent + 1);
  }
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>();
    shard->eviction_rng = util::Xoshiro256{seeder.next()};
    if (capacity_hint > 0) {
      // Pre-publish an empty pre-sized index so early inserts skip the
      // first few grow-republish cycles. (Construction is single-threaded;
      // the version bump still marks this as publication number one so
      // readers' zero-stamped TLS entries refresh onto it.)
      auto index = std::make_shared<ShardIndex>();
      index->slots.resize(std::bit_ceil(capacity_hint));
      shard->index = std::move(index);
      shard->version.store(1, std::memory_order_release);
    }
  }
}

ContainerCache::~ContainerCache() {
  for (auto& table : orbit_tables_) delete table.load(std::memory_order_relaxed);
}

OrbitTable* ContainerCache::orbit_table(const ConstructionOptions& options) {
  if (!OrbitTable::covers(net_.m())) return nullptr;
  std::atomic<OrbitTable*>& slot =
      orbit_tables_[static_cast<std::size_t>(options.ordering) * 2 +
                    static_cast<std::size_t>(options.selection)];
  OrbitTable* table = slot.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  // First use of this variant: racing threads may each allocate one; the
  // first CAS publishes, the rest free theirs.
  // The class tier holds the cache's cap when it has one, else every class
  // at m <= 3 (2^(2^m + 2m)) and 2^16 of the 2^24 at m = 4.
  const std::size_t classes = std::size_t{1}
                              << (net_.cluster_size() + 2 * net_.m());
  const std::size_t cap = shards_.size() * config_.max_entries_per_shard;
  auto mine = std::make_unique<OrbitTable>(
      net_, options, std::min(classes, cap > 0 ? cap : std::size_t{1} << 16));
  if (slot.compare_exchange_strong(table, mine.get(), std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return mine.release();
  }
  return table;
}

std::uint64_t ContainerCache::next_shard_id() noexcept {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const ContainerCache::ShardIndex* ContainerCache::snapshot(
    Shard& shard) const {
  struct Entry {
    std::uint64_t version = 0;
    std::shared_ptr<const ShardIndex> index;
  };
  thread_local std::vector<Entry> tls_pins;
  // Sized for all of this cache's shards at once (their ids ascend in
  // shards_ order), so a thread's first lookup is its only TLS growth here.
  if (shard.id >= tls_pins.size()) tls_pins.resize(shards_.back()->id + 1);
  Entry& entry = tls_pins[shard.id];
  // Fresh TLS entries carry stamp 0, matching the never-published state's
  // null index, so the no-publications-yet case needs no refresh either.
  const std::uint64_t version = shard.version.load(std::memory_order_acquire);
  if (entry.version != version) {
    std::lock_guard lock{shard.mutex};
    entry.index = shard.index;
    // Re-read under the lock: a publication that slipped in since the
    // check above must not leave a stale stamp pinned to the new index.
    entry.version = shard.version.load(std::memory_order_relaxed);
  }
  return entry.index.get();
}

void flatten(const DisjointPathSetRef& set, std::vector<Node>& nodes,
             std::vector<std::uint32_t>& offsets) {
  nodes.clear();
  offsets.assign(1, 0);
  for (const PathRef path : set.paths) {
    nodes.insert(nodes.end(), path.begin(), path.end());
    offsets.push_back(static_cast<std::uint32_t>(nodes.size()));
  }
}

std::size_t ContainerHandle::max_length() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 0; i < path_count(); ++i) {
    best = std::max(best, path_size(i) - 1);
  }
  return best;
}

Path ContainerHandle::materialize_path(std::size_t i) const {
  Path path;
  path.reserve(path_size(i));
  for (std::size_t j = 0; j < path_size(i); ++j) path.push_back(node(i, j));
  return path;
}

DisjointPathSet ContainerHandle::materialize() const {
  DisjointPathSet set;
  set.paths.reserve(path_count());
  for (std::size_t i = 0; i < path_count(); ++i) {
    set.paths.push_back(materialize_path(i));
  }
  return set;
}

void ContainerCache::ShardIndex::insert(
    const Key& key, std::shared_ptr<const FlatContainer> value) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = KeyHash{}(key) & mask;
  while (slots[i].value != nullptr) i = (i + 1) & mask;
  slots[i].key = key;
  slots[i].value = std::move(value);
  ++size;
}

std::shared_ptr<ContainerCache::ShardIndex const> ContainerCache::rebuild_index(
    const ShardIndex* old, std::size_t victim, const Key& key,
    std::shared_ptr<const FlatContainer> value) const {
  const std::size_t old_size = old == nullptr ? 0 : old->size;
  const std::size_t entries = old_size - (victim != kNoVictim ? 1 : 0) + 1;
  std::size_t capacity = old != nullptr && !old->slots.empty()
                             ? old->slots.size()
                             : std::bit_ceil(std::max<std::size_t>(
                                   config_.initial_index_capacity, 16));
  while (entries * 100 > capacity * config_.max_load_percent) capacity <<= 1;

  auto next = std::make_shared<ShardIndex>();
  next->slots.resize(capacity);
  if (old != nullptr) {
    std::size_t ordinal = 0;
    for (const ShardIndex::Slot& slot : old->slots) {
      if (slot.value == nullptr) continue;
      if (ordinal++ == victim) continue;  // evicted
      next->insert(slot.key, slot.value);
    }
  }
  next->insert(key, std::move(value));
  return next;
}

ContainerHandle ContainerCache::lookup(Node s, Node t) {
  return lookup(s, t, config_.options);
}

void ContainerCache::check(Node s, Node t) const {
  if (!net_.contains(s) || !net_.contains(t)) {
    throw std::invalid_argument("ContainerCache: node out of range");
  }
  if (s == t) throw std::invalid_argument("ContainerCache: s == t");
}

void ContainerCache::count(bool hit, bool* cache_hit) {
  (hit ? hits_ : misses_).add();
  if (cache_hit != nullptr) *cache_hit = hit;
}

ContainerHandle ContainerCache::lookup(Node s, Node t,
                                       const ConstructionOptions& options,
                                       bool* cache_hit) {
  check(s, t);
  const std::uint64_t xs = net_.cluster_of(s);
  const std::uint64_t xdiff = xs ^ net_.cluster_of(t);
  const std::uint64_t ys = net_.position_of(s);
  const std::uint64_t yt = net_.position_of(t);
  // In the packed encoding, relabeling every node's cluster by xs is one
  // XOR with (xs << m) — the handle applies it lazily.
  const Node mask = xs << net_.m();

  // No span on either hit path: the enclosing answer/answer_view span
  // times hits, which is what holds enabled-tracing overhead under 5%.
  if (OrbitTable* orbit = orbit_table(options)) {
    bool hit = false;
    ContainerHandle handle;
    if (const FlatContainer* flat = orbit->tier(xdiff, ys, yt, &hit)) {
      handle = ContainerHandle{flat, mask};
    } else {
      auto owned = std::make_shared<FlatContainer>();
      orbit->flatten(net_.encode(0, ys), net_.encode(xdiff, yt), owned->nodes,
                     owned->offsets, &hit);
      handle = ContainerHandle{std::move(owned), mask};
    }
    count(hit, cache_hit);
    return handle;
  }

  const Key key{xdiff, ys, yt, static_cast<std::uint8_t>(options.ordering),
                static_cast<std::uint8_t>(options.selection)};
  Shard& shard = *shards_[KeyHash{}(key) & (shards_.size() - 1)];
  // m = 5: validate this thread's pinned snapshot and probe it. No mutex,
  // no shared write (the version check is a read; the hit counter is a
  // thread-private cell).
  if (const ShardIndex* index = snapshot(shard)) {
    if (const auto* found = index->find(key)) {
      count(true, cache_hit);
      return ContainerHandle{*found, mask};
    }
  }

  // Miss: construct without holding any lock, then build-and-swap a new
  // index under the writer mutex. A racing thread may have published the
  // key meanwhile; its entry is byte-for-byte the same, so the first
  // publication wins and the duplicate work is discarded.
  count(false, cache_hit);
  auto flat = std::make_shared<FlatContainer>();
  {
    static obs::Histogram& construct_hist =
        obs::stage_histogram(obs::stages::kConstruct);
    obs::TraceSpan span{obs::stages::kConstruct, &construct_hist};
    core::flatten(node_disjoint_paths(net_, net_.encode(0, key.ys),
                                      net_.encode(key.xdiff, key.yt), options,
                                      tls_construction_scratch()),
                  flat->nodes, flat->offsets);
  }

  static obs::Histogram& publish_hist =
      obs::stage_histogram(obs::stages::kCachePublish);
  obs::TraceSpan span{obs::stages::kCachePublish, &publish_hist};
  std::lock_guard lock{shard.mutex};
  const ShardIndex* current = shard.index.get();
  if (current != nullptr) {
    if (const auto* found = current->find(key)) {
      // Lost the publication race; serve the winner's identical entry.
      // (This thread's TLS pin refreshes on its next lookup here.)
      return ContainerHandle{*found, mask};
    }
  }
  std::size_t victim = kNoVictim;
  if (config_.max_entries_per_shard > 0 && current != nullptr &&
      current->size >= config_.max_entries_per_shard) {
    // Random replacement, for real: a uniformly random resident entry from
    // the shard's seeded stream (selected by occupied-slot ordinal, so the
    // choice is deterministic per seed).
    victim = shard.eviction_rng.below(current->size);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  std::shared_ptr<const ShardIndex> next =
      rebuild_index(current, victim, key, std::move(flat));
  const auto* inserted = next->find(key);
  shard.index = std::move(next);
  shard.version.fetch_add(1, std::memory_order_release);
  return ContainerHandle{*inserted, mask};
}

DisjointPathSet ContainerCache::materialize(Node s, Node t,
                                            const ConstructionOptions& options,
                                            bool* cache_hit) {
  check(s, t);
  OrbitTable* orbit = orbit_table(options);
  if (orbit == nullptr) return lookup(s, t, options, cache_hit).materialize();
  bool hit = false;
  DisjointPathSet set = orbit->materialize(s, t, &hit);
  count(hit, cache_hit);
  return set;
}

void ContainerCache::flatten(Node s, Node t, const ConstructionOptions& options,
                             std::vector<Node>& nodes,
                             std::vector<std::uint32_t>& offsets,
                             bool* cache_hit) {
  const ContainerHandle handle = lookup(s, t, options, cache_hit);
  nodes.clear();
  offsets.assign(1, 0);
  for (std::size_t i = 0; i < handle.path_count(); ++i) {
    for (std::size_t j = 0; j < handle.path_size(i); ++j) {
      nodes.push_back(handle.node(i, j));
    }
    offsets.push_back(static_cast<std::uint32_t>(nodes.size()));
  }
}

unsigned ContainerCache::scan(Node s, Node t, const ConstructionOptions& options,
                              const std::uint8_t* usable,
                              std::vector<Path>& paths, bool* cache_hit) {
  check(s, t);
  OrbitTable* orbit = orbit_table(options);
  if (orbit == nullptr) throw std::invalid_argument("ContainerCache: m > 4");
  bool hit = false;
  const unsigned blocked = orbit->scan(s, t, usable, paths, &hit);
  count(hit, cache_hit);
  return blocked;
}

std::size_t ContainerCache::evictions() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->evictions.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t ContainerCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock{shard->mutex};
    if (shard->index != nullptr) total += shard->index->size;
  }
  return total;
}

CacheStats ContainerCache::stats() const {
  CacheStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    CacheShardStats row;
    {
      std::lock_guard lock{shard->mutex};
      if (shard->index != nullptr) row.entries = shard->index->size;
    }
    row.evictions = shard->evictions.load(std::memory_order_relaxed);
    stats.entries += row.entries;
    stats.evictions += row.evictions;
    stats.shards.push_back(row);
  }
  stats.hits = hits_.fold();
  stats.misses = misses_.fold();
  for (const auto& slot : orbit_tables_) {
    const OrbitTable* table = slot.load(std::memory_order_acquire);
    if (table == nullptr) continue;
    ++stats.orbit_variants;
    stats.orbit_entries += table->entries();
    stats.orbit_bytes += table->bytes();
    stats.tier_entries += table->tier_entries();
  }
  return stats;
}

void ContainerCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock{shard->mutex};
    shard->index = nullptr;
    shard->evictions.store(0, std::memory_order_relaxed);
    shard->version.fetch_add(1, std::memory_order_release);
  }
  hits_.reset();
  misses_.reset();
}

}  // namespace hhc::core
