// Per-thread striped cells: the write side of "keep shared atomics off the
// hot path".
//
// A Striped<Cell> gives every thread that touches it its own cache-line-
// aligned Cell. The owning thread is a cell's only writer, so a hot-path
// update is a relaxed load and store (stripe_add) on memory no other
// thread writes: no locked read-modify-write and no shared-counter
// cache-line ping-pong. Readers visit every thread's cell under the
// object's mutex (for_each) and fold them at the moment of the read, so
// folded totals are exact for quiescent periods and at-most-one-update
// racy under load — the consistency a relaxed load of one shared atomic
// gives concurrent readers. reset() never writes a cell either: it starts
// a new epoch, older cells read as empty, and each owner zeroes its cell on
// next use. A Cell may be one counter (StripedCounter, the ContainerCache
// hit/miss tallies), a histogram's bucket array (obs::Histogram), or a
// whole bundle of per-query tallies (PathService), so a caller that
// updates several values resolves its slot once. This is the per-thread
// cache plus merge-on-read shape of opencubes' Hashy.
//
// Lifetime/identity scheme: every Striped object draws a process-unique id
// (never reused), and each thread keeps one flat id -> cell* cache in TLS,
// shared by every Striped<Cell> type. Cells are OWNED by the Striped object
// (so updates from exited threads survive in later folds); the TLS cache
// may hold stale pointers for destroyed objects, but those ids are never
// looked up again — only the owning object consults its slot — so the
// stale entries are inert.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace hhc::util {

namespace detail {

[[nodiscard]] inline std::atomic<std::uint64_t>& next_stripe_id() noexcept {
  static std::atomic<std::uint64_t> id{0};
  return id;
}

/// This thread's id -> cell* cache, shared by every Striped<Cell>.
[[nodiscard]] inline std::vector<void*>& thread_stripes() noexcept {
  thread_local std::vector<void*> cells;
  return cells;
}

}  // namespace detail

/// Adds n to a cell only the calling thread writes. A relaxed load and
/// store replace the locked read-modify-write: there is no other writer to
/// lose an update to, and readers only load.
inline void stripe_add(std::atomic<std::uint64_t>& cell,
                       std::uint64_t n = 1) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

template <typename Cell>
class Striped {
 public:
  Striped()
      : id_{detail::next_stripe_id().fetch_add(1, std::memory_order_relaxed)} {
  }

  Striped(const Striped&) = delete;
  Striped& operator=(const Striped&) = delete;

  /// The calling thread's cell, value-initialized again first if a reset()
  /// happened since this thread last used it. One TLS lookup and one load
  /// of the reset epoch on the fast path; the first use per (thread,
  /// object) allocates and registers a cell under the mutex.
  [[nodiscard]] Cell& local() {
    std::vector<void*>& cells = detail::thread_stripes();
    Slot* slot = id_ < cells.size() ? static_cast<Slot*>(cells[id_]) : nullptr;
    if (slot == nullptr) slot = &register_local(cells);
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (slot->epoch.load(std::memory_order_relaxed) != epoch) {
      slot->cell.~Cell();
      ::new (&slot->cell) Cell{};
      slot->epoch.store(epoch, std::memory_order_release);
    }
    return slot->cell;
  }

  /// Calls f(cell) for every thread's cell written since the last reset(),
  /// under the mutex (so it never races a registration or a reset, only
  /// the owners' relaxed updates).
  template <typename F>
  void for_each(F&& f) const {
    std::lock_guard lock{mutex_};
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    for (const auto& slot : slots_) {
      if (slot->epoch.load(std::memory_order_acquire) == epoch) {
        f(static_cast<const Cell&>(slot->cell));
      }
    }
  }

  /// Starts a new epoch: every cell reads as zero until its owner next
  /// writes it, and the owner zeroes it first. Never writes a cell, so a
  /// reset cannot race an owner's update; an update racing the reset lands
  /// before it (and is discarded) or after it.
  void reset() noexcept {
    std::lock_guard lock{mutex_};
    epoch_.fetch_add(1, std::memory_order_release);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};  // the reset epoch `cell` counts in
    Cell cell{};
  };

  Slot& register_local(std::vector<void*>& cells) {
    if (id_ >= cells.size()) cells.resize(id_ + 1, nullptr);
    std::lock_guard lock{mutex_};
    slots_.push_back(std::make_unique<Slot>());
    Slot& slot = *slots_.back();
    slot.epoch.store(epoch_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    cells[id_] = &slot;
    return slot;
  }

  const std::uint64_t id_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// One striped event count: add() bumps the calling thread's cell, fold()
/// sums every thread's cell.
class StripedCounter {
 public:
  /// Wait-free after the first use per (thread, counter).
  void add(std::uint64_t n = 1) noexcept { stripe_add(cells_.local(), n); }

  /// Sum of every thread's cell at the time of the call (exact when
  /// writers are quiescent; otherwise may miss increments racing the fold,
  /// exactly like a relaxed load of a shared atomic would).
  [[nodiscard]] std::uint64_t fold() const {
    std::uint64_t total = 0;
    cells_.for_each([&total](const std::atomic<std::uint64_t>& cell) {
      total += cell.load(std::memory_order_relaxed);
    });
    return total;
  }

  /// Zeroes the count (see Striped::reset()).
  void reset() noexcept { cells_.reset(); }

 private:
  Striped<std::atomic<std::uint64_t>> cells_;
};

}  // namespace hhc::util
