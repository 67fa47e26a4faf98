#include "query/admission.hpp"

#include <thread>
#include <vector>

namespace hhc::query {

std::vector<std::size_t>& AdmissionGate::own_slots() noexcept {
  // One entry per gate instance (ids are process-unique and never reused),
  // mirroring StripedCounter's TLS scheme: entries for destroyed gates are
  // inert because their ids are never consulted again.
  thread_local std::vector<std::size_t> entries;
  return entries;
}

bool AdmissionGate::try_claim() noexcept {
  // A thread's first claim starts at a slot picked by its arrival order,
  // so new callers spread over the slots instead of all probing slot 0.
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t thread_index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::size_t>& entries = own_slots();
  if (id_ >= entries.size()) entries.resize(id_ + 1, kNoSlot);
  std::size_t& own = entries[id_];
  const std::size_t n = config_.max_in_flight;
  std::size_t i = own != kNoSlot ? own : thread_index % n;
  for (std::size_t k = 0; k < n; ++k, i = i + 1 == n ? 0 : i + 1) {
    // Read before the exchange: a taken slot costs a load, not a write.
    if (!slots_[i].taken.load(std::memory_order_relaxed) &&
        !slots_[i].taken.exchange(true, std::memory_order_acquire)) {
      own = i;
      return true;
    }
  }
  return false;
}

std::size_t AdmissionGate::in_flight() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < config_.max_in_flight; ++i) {
    if (slots_[i].taken.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

AdmissionVerdict AdmissionGate::admit(const util::Deadline& deadline,
                                      const util::CancellationToken* cancel) {
  // A query that is already expired or cancelled never reaches a slot: it
  // is classified here, once, and did no admitted work.
  if (util::should_stop(deadline, cancel)) return AdmissionVerdict::kTimedOut;

  // Unlimited gate: no occupancy accounting at all, so the default config
  // adds zero shared writes to answer()/answer_view().
  if (config_.max_in_flight == 0) return AdmissionVerdict::kAdmitted;

  // Claim a slot: reads only until a free one is found, so a saturated
  // gate sheds after one relaxed load per slot and no shared write.
  if (try_claim()) return AdmissionVerdict::kAdmitted;
  // Every slot is held. With more callers than cores, a holder may be
  // waiting for the very CPU this caller is on: give the CPU up once, so a
  // caller that retries at once does not keep a preempted holder, and its
  // slot, off the CPU for a whole time slice.
  std::this_thread::yield();
  return AdmissionVerdict::kShed;
}

void AdmissionGate::release() noexcept {
  if (config_.max_in_flight == 0) return;  // nothing was claimed
  // This thread's own slot first: the common case, on a line in its cache.
  const std::vector<std::size_t>& entries = own_slots();
  const std::size_t own = id_ < entries.size() ? entries[id_] : kNoSlot;
  if (own != kNoSlot &&
      slots_[own].taken.exchange(false, std::memory_order_release)) {
    return;
  }
  // The contract pairs admits and releases by count, not by thread, so a
  // release whose own slot is free frees whichever slot is taken; the
  // count of taken slots stays exact. A pass that finds none taken ends:
  // an unmatched release has nothing to give back.
  for (bool seen = true; seen;) {
    seen = false;
    for (std::size_t i = 0; i < config_.max_in_flight; ++i) {
      if (!slots_[i].taken.load(std::memory_order_relaxed)) continue;
      seen = true;
      if (slots_[i].taken.exchange(false, std::memory_order_release)) return;
    }
  }
}

bool CircuitBreaker::should_short_circuit(core::Node s, core::Node t) {
  if (threshold_ == 0) return false;
  // Read-only fast path: until a record() has inserted the first entry,
  // no pair can possibly be open, so the map mutex is never touched.
  if (!has_entries_.load(std::memory_order_acquire)) return false;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::lock_guard lock{mutex_};
  auto it = entries_.find(PairKey{s, t});
  if (it == entries_.end()) return false;
  if (it->second.epoch != epoch) {
    // The fault landscape changed since this entry was written: reset it
    // lazily instead of sweeping the whole map on every epoch advance.
    it->second = Entry{.epoch = epoch};
    return false;
  }
  return it->second.open;
}

void CircuitBreaker::record(core::Node s, core::Node t, bool disconnected) {
  if (threshold_ == 0) return;
  // A success has nothing to reset until some pair was seen disconnected.
  if (!disconnected && !has_entries_.load(std::memory_order_acquire)) return;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::lock_guard lock{mutex_};
  if (!disconnected) {
    // Only an existing entry has a streak to reset: a success never
    // inserts, so the map holds pairs seen disconnected, not every pair.
    const auto it = entries_.find(PairKey{s, t});
    if (it != entries_.end()) it->second = Entry{.epoch = epoch};
    return;
  }
  Entry& entry = entries_[PairKey{s, t}];
  has_entries_.store(true, std::memory_order_release);
  if (entry.epoch != epoch) entry = Entry{.epoch = epoch};
  if (entry.open) return;  // already open; nothing to count
  if (++entry.streak >= threshold_) {
    entry.open = true;
    trips_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace hhc::query
