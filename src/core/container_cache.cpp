#include "core/container_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/io.hpp"
#include "core/orbit_table.hpp"
#include "core/scratch.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"

namespace hhc::core {

std::vector<StatRow> CacheStats::rows() const {
  return {stat_scalar("cache", "entries", std::uint64_t{entries}),
          stat_scalar("cache", "hits", std::uint64_t{hits}),
          stat_scalar("cache", "misses", std::uint64_t{misses}),
          stat_scalar("cache", "hit_rate", hit_rate()),
          stat_scalar("cache.orbit", "variants", std::uint64_t{orbit_variants}),
          stat_scalar("cache.orbit", "entries", std::uint64_t{orbit_entries}),
          stat_scalar("cache.orbit", "bytes", std::uint64_t{orbit_bytes})};
}

ClassStore::ClassStore(std::size_t capacity)
    : capacity_{capacity},
      // At most half full, so a probe for an absent key ends early.
      slot_count_{std::bit_ceil(std::max<std::size_t>(2 * capacity, 2))},
      shift_{64 - static_cast<unsigned>(std::countr_zero(slot_count_))},
      slots_{std::make_unique<std::atomic<const Entry*>[]>(slot_count_)} {}

ClassStore::~ClassStore() {
  for (std::size_t i = 0; i < slot_count_; ++i) {
    delete slots_[i].load(std::memory_order_relaxed);
  }
}

const FlatContainer* ClassStore::find(std::uint64_t key) const noexcept {
  const std::size_t mask = slot_count_ - 1;
  for (std::size_t i = slot_of(key);; i = (i + 1) & mask) {
    const Entry* found = slots_[i].load(std::memory_order_acquire);
    if (found == nullptr) return nullptr;
    if (found->key == key) return &found->flat;
  }
}

bool ClassStore::reserve() noexcept {
  // The load keeps a full store's misses from writing the shared count.
  if (size_.load(std::memory_order_relaxed) >= capacity_) return false;
  if (size_.fetch_add(1, std::memory_order_relaxed) >= capacity_) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

const FlatContainer* ClassStore::publish(
    std::unique_ptr<Entry> entry) noexcept {
  // Publish at the first empty slot of the key's probe sequence. Another
  // thread may fill that slot first: with the same key it built the
  // identical entry (serve the winner's, drop ours); with another, probe on.
  const std::size_t mask = slot_count_ - 1;
  for (std::size_t i = slot_of(entry->key);; i = (i + 1) & mask) {
    const Entry* expected = nullptr;
    if (slots_[i].compare_exchange_strong(expected, entry.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      return &entry.release()->flat;
    }
    if (expected->key == entry->key) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return &expected->flat;
    }
  }
}

struct ContainerCache::Variant {
  Variant(const HhcTopology& net, const ConstructionOptions& options,
          std::size_t capacity)
      : store{capacity},
        orbit{OrbitTable::covers(net.m())
                  ? std::make_unique<OrbitTable>(net, options)
                  : nullptr} {}

  ClassStore store;
  std::unique_ptr<OrbitTable> orbit;  // null at m > OrbitTable::kMaxM
};

ContainerCache::ContainerCache(const HhcTopology& net)
    : ContainerCache(net, Config{}) {}

ContainerCache::ContainerCache(const HhcTopology& net, Config config)
    : net_{net}, config_{config} {
  // Every class at m <= 3 (2^(2^m + 2m)); 2^16 of the 2^24 at m = 4 and of
  // the 2^42 at m = 5.
  const std::size_t classes = std::size_t{1}
                              << (net_.cluster_size() + 2 * net_.m());
  const std::size_t cap =
      std::max<std::size_t>(config_.shards, 1) * config_.max_entries_per_shard;
  capacity_ = std::min(classes, cap > 0 ? cap : std::size_t{1} << 16);
}

ContainerCache::~ContainerCache() {
  for (auto& slot : variants_) delete slot.load(std::memory_order_relaxed);
}

ContainerCache::Variant& ContainerCache::variant(
    const ConstructionOptions& options) {
  std::atomic<Variant*>& slot =
      variants_[static_cast<std::size_t>(options.ordering) * 2 +
                static_cast<std::size_t>(options.selection)];
  Variant* current = slot.load(std::memory_order_acquire);
  if (current != nullptr) return *current;
  // First use of this variant: racing threads may each allocate one; the
  // first CAS publishes, the rest free theirs.
  auto mine = std::make_unique<Variant>(net_, options, capacity_);
  if (slot.compare_exchange_strong(current, mine.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *mine.release();
  }
  return *current;
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

bool ContainerCache::fill(Variant& variant, std::uint64_t xdiff,
                          std::uint64_t ys, std::uint64_t yt,
                          const ConstructionOptions& options,
                          FlatContainer& flat) {
  const Node s = net_.encode(0, ys);
  const Node t = net_.encode(xdiff, yt);
  if (variant.orbit != nullptr) {
    bool hit = false;
    variant.orbit->flatten(s, t, flat.nodes, flat.offsets, &hit);
    return hit;
  }
  static obs::Histogram& construct_hist =
      obs::stage_histogram(obs::stages::kConstruct);
  obs::TraceSpan span{obs::stages::kConstruct, &construct_hist};
  const DisjointPathSetRef set =
      node_disjoint_paths(net_, s, t, options, tls_construction_scratch());
  flat.nodes.clear();
  flat.offsets.assign(1, 0);
  for (const PathRef path : set.paths) {
    flat.nodes.insert(flat.nodes.end(), path.begin(), path.end());
    flat.offsets.push_back(static_cast<std::uint32_t>(flat.nodes.size()));
  }
  return false;
}

ContainerHandle ContainerCache::lookup(Node s, Node t,
                                       const ConstructionOptions& options,
                                       bool* cache_hit) {
  check(s, t);
  const unsigned m = net_.m();
  const std::uint64_t xs = net_.cluster_of(s);
  const std::uint64_t xdiff = xs ^ net_.cluster_of(t);
  const std::uint64_t ys = net_.position_of(s);
  const std::uint64_t yt = net_.position_of(t);
  const std::uint64_t key = (xdiff << (2 * m)) | (ys << m) | yt;
  // In the packed encoding, relabeling every node's cluster by xs is one
  // XOR with (xs << m) — the handle applies it lazily.
  const Node mask = xs << m;
  Variant& v = variant(options);

  // No span on the hit path: the enclosing answer/answer_view span times
  // hits, which is what holds enabled-tracing overhead under 5%.
  if (const FlatContainer* flat = v.store.find(key)) {
    count(true, cache_hit);
    return ContainerHandle{flat, mask};
  }
  if (!v.store.reserve()) {
    auto owned = std::make_shared<FlatContainer>();
    count(fill(v, xdiff, ys, yt, options, *owned), cache_hit);
    return ContainerHandle{std::move(owned), mask};
  }
  auto mine = std::make_unique<ClassStore::Entry>();
  mine->key = key;
  count(fill(v, xdiff, ys, yt, options, mine->flat), cache_hit);
  static obs::Histogram& publish_hist =
      obs::stage_histogram(obs::stages::kCachePublish);
  obs::TraceSpan span{obs::stages::kCachePublish, &publish_hist};
  return ContainerHandle{v.store.publish(std::move(mine)), mask};
}

DisjointPathSet ContainerCache::materialize(Node s, Node t,
                                            const ConstructionOptions& options,
                                            bool* cache_hit) {
  check(s, t);
  OrbitTable* orbit = variant(options).orbit.get();
  if (orbit == nullptr) return lookup(s, t, options, cache_hit).materialize();
  bool hit = false;
  DisjointPathSet set = orbit->materialize(s, t, &hit);
  count(hit, cache_hit);
  return set;
}

unsigned ContainerCache::scan(Node s, Node t, const ConstructionOptions& options,
                              const std::uint8_t* usable,
                              std::vector<Path>& paths, bool* cache_hit) {
  check(s, t);
  OrbitTable* orbit = variant(options).orbit.get();
  if (orbit == nullptr) throw std::invalid_argument("ContainerCache: m > 4");
  bool hit = false;
  const unsigned blocked = orbit->scan(s, t, usable, paths, &hit);
  count(hit, cache_hit);
  return blocked;
}

std::size_t ContainerCache::size() const noexcept {
  std::size_t total = 0;
  for (const auto& slot : variants_) {
    if (const Variant* v = slot.load(std::memory_order_acquire)) {
      total += v->store.size();
    }
  }
  return total;
}

CacheStats ContainerCache::stats() const {
  CacheStats stats;
  stats.entries = size();
  stats.hits = hits_.fold();
  stats.misses = misses_.fold();
  for (const auto& slot : variants_) {
    const Variant* v = slot.load(std::memory_order_acquire);
    if (v == nullptr || v->orbit == nullptr) continue;
    ++stats.orbit_variants;
    stats.orbit_entries += v->orbit->entries();
    stats.orbit_bytes += v->orbit->bytes();
  }
  return stats;
}

void ContainerCache::clear() {
  hits_.reset();
  misses_.reset();
}

}  // namespace hhc::core
