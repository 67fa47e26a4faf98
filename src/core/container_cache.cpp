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

namespace {

// The store's capacity: every class at m <= 3 (2^(2^m + 2m)); 2^16 of the
// 2^24 at m = 4 and of the 2^42 at m = 5 when uncapped.
std::size_t store_capacity(const HhcTopology& net,
                           const ContainerCache::Config& config) {
  const std::size_t classes = std::size_t{1}
                              << (net.cluster_size() + 2 * net.m());
  const std::size_t cap =
      std::max<std::size_t>(config.shards, 1) * config.max_entries_per_shard;
  return std::min(classes, cap > 0 ? cap : std::size_t{1} << 16);
}

}  // namespace

ContainerCache::ContainerCache(const HhcTopology& net)
    : ContainerCache(net, Config{}) {}

ContainerCache::ContainerCache(const HhcTopology& net, Config config)
    : net_{net},
      store_{store_capacity(net, config)},
      orbit_{OrbitTable::covers(net.m()) ? std::make_unique<OrbitTable>(net)
                                         : nullptr} {}

ContainerCache::~ContainerCache() = default;

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

bool ContainerCache::fill(std::uint64_t xdiff, std::uint64_t ys,
                          std::uint64_t yt, FlatContainer& flat) {
  const Node s = net_.encode(0, ys);
  const Node t = net_.encode(xdiff, yt);
  if (orbit_ != nullptr) {
    bool hit = false;
    orbit_->flatten(s, t, flat, &hit);
    return hit;
  }
  obs::TraceSpan span{obs::stages::kConstruct};
  ConstructionScratch& scratch = tls_construction_scratch();
  (void)node_disjoint_paths(net_, s, t, {}, scratch);
  flat = scratch.flat;
  return false;
}

ContainerHandle ContainerCache::lookup(Node s, Node t, bool* cache_hit) {
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

  // No span on the hit path: the enclosing answer/answer_view span times
  // hits, so an enabled trace records one event per hit, not two.
  if (const FlatContainer* flat = store_.find(key)) {
    count(true, cache_hit);
    return ContainerHandle{flat, mask};
  }
  if (!store_.reserve()) {
    auto owned = std::make_shared<FlatContainer>();
    count(fill(xdiff, ys, yt, *owned), cache_hit);
    return ContainerHandle{std::move(owned), mask};
  }
  auto mine = std::make_unique<ClassStore::Entry>();
  mine->key = key;
  count(fill(xdiff, ys, yt, mine->flat), cache_hit);
  obs::TraceSpan span{obs::stages::kCachePublish};
  return ContainerHandle{store_.publish(std::move(mine)), mask};
}

DisjointPathSet ContainerCache::materialize(Node s, Node t,
                                            bool* cache_hit) {
  check(s, t);
  if (orbit_ == nullptr) return lookup(s, t, cache_hit).materialize();
  bool hit = false;
  DisjointPathSet set = orbit_->materialize(s, t, &hit);
  count(hit, cache_hit);
  return set;
}

unsigned ContainerCache::scan(Node s, Node t, const std::uint8_t* usable,
                              std::vector<Path>& paths, bool* cache_hit) {
  check(s, t);
  if (orbit_ == nullptr) throw std::invalid_argument("ContainerCache: m > 4");
  bool hit = false;
  const unsigned blocked = orbit_->scan(s, t, usable, paths, &hit);
  count(hit, cache_hit);
  return blocked;
}

CacheStats ContainerCache::stats() const {
  CacheStats stats;
  stats.entries = size();
  stats.hits = hits_.fold();
  stats.misses = misses_.fold();
  if (orbit_ != nullptr) {
    stats.orbit_entries = orbit_->entries();
    stats.orbit_bytes = orbit_->bytes();
  }
  return stats;
}

void ContainerCache::clear() {
  hits_.reset();
  misses_.reset();
}

}  // namespace hhc::core
