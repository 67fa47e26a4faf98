#include "query/admission.hpp"

#include <cmath>
#include <thread>
#include <vector>

namespace hhc::query {

std::vector<AdmissionGate::Local>& AdmissionGate::locals() noexcept {
  // One entry per gate instance (ids are process-unique and never reused),
  // mirroring StripedCounter's TLS scheme: entries for destroyed gates are
  // inert because their ids are never consulted again.
  thread_local std::vector<Local> entries;
  return entries;
}

AdmissionGate::Local& AdmissionGate::local() const {
  std::vector<Local>& entries = locals();
  if (id_ >= entries.size()) entries.resize(id_ + 1);
  return entries[id_];
}

bool AdmissionGate::try_claim(Local& local) noexcept {
  // A thread's first claim starts at a slot picked by its arrival order,
  // so new callers spread over the slots instead of all probing slot 0.
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t thread_index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = config_.max_in_flight;
  std::size_t i = local.slot != kNoSlot ? local.slot : thread_index % n;
  for (std::size_t k = 0; k < n; ++k, i = i + 1 == n ? 0 : i + 1) {
    // Read before the exchange: a taken slot costs a load, not a write.
    if (!slots_[i].taken.load(std::memory_order_relaxed) &&
        !slots_[i].taken.exchange(true, std::memory_order_acquire)) {
      local.slot = i;
      return true;
    }
  }
  return false;
}

std::size_t AdmissionGate::in_flight() const noexcept {
  std::size_t n = overflow_.load(std::memory_order_relaxed);
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

  // One relaxed load: the overload verdict is the cached result of the
  // last decision-epoch fold, never computed inline on the hot path.
  if (overload_cached_.load(std::memory_order_relaxed)) {
    // A latency overload sheds: admitting behind an already slow service
    // only makes the smoothed latency worse. Every probe_interval-th
    // consecutive shed decision per thread is admitted degraded as a
    // half-open probe so completions keep feeding the detector (recovery
    // contract).
    std::size_t& streak = local().streak;
    if (config_.probe_interval == 0 ||
        ++streak % config_.probe_interval != 0) {
      return AdmissionVerdict::kShed;  // no shared writes
    }
    // The probe is counted past the bound, without a slot: it may
    // transiently exceed the bound, which is the price of keeping the
    // feedback loop closed while the gate is shut.
    if (config_.max_in_flight != 0) {
      overflow_.fetch_add(1, std::memory_order_relaxed);
    }
    return AdmissionVerdict::kAdmittedDegraded;
  }

  // Unlimited gate: no occupancy accounting at all, so the default config
  // adds zero shared writes to answer()/answer_view().
  if (config_.max_in_flight == 0) return AdmissionVerdict::kAdmitted;

  // Claim a slot: reads only until a free one is found, so a saturated
  // gate sheds after one relaxed load per slot and no shared write.
  if (try_claim(local())) return AdmissionVerdict::kAdmitted;
  // Every slot is held. With more callers than cores, a holder may be
  // waiting for the very CPU this caller is on: give the CPU up once, so a
  // caller that retries at once does not keep a preempted holder, and its
  // slot, off the CPU for a whole time slice.
  std::this_thread::yield();
  return AdmissionVerdict::kShed;
}

void AdmissionGate::release() noexcept {
  if (config_.max_in_flight == 0) return;  // nothing was claimed
  // Admissions past the bound go back first: while any is out, the gate
  // is at or over its bound and no slot may reopen.
  std::size_t over = overflow_.load(std::memory_order_relaxed);
  while (over > 0) {
    if (overflow_.compare_exchange_weak(over, over - 1,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
  // Then this thread's own slot: the common case, on a line in its cache.
  const std::vector<Local>& entries = locals();
  const std::size_t own = id_ < entries.size() ? entries[id_].slot : kNoSlot;
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

void AdmissionGate::record_latency(double micros) noexcept {
  if (!(micros >= 0.0)) return;  // NaN/negative samples carry no signal
  Completions& local = completion_cells_.local();
  const std::uint64_t n = local.count.load(std::memory_order_relaxed) + 1;
  local.count.store(n, std::memory_order_relaxed);
  util::stripe_add(local.sum_ns, static_cast<std::uint64_t>(micros * 1000.0));
  if (config_.overload_latency_us <= 0.0) {
    // Detector disabled: the cells are pure telemetry, folded only when
    // ewma_latency_us() is read.
    return;
  }
  // Decision-epoch fold: every kDecisionEpoch-th completion of a thread
  // folds the striped cells into the EWMA, and an overloaded gate folds
  // eagerly so the rare probe completions reopen it without waiting out an
  // epoch. The trigger is this thread's own count, so the completion path
  // writes no shared memory between folds.
  if (n % kDecisionEpoch == 0 ||
      overload_cached_.load(std::memory_order_relaxed)) {
    (void)try_fold_completions();
  }
}

void AdmissionGate::apply_fold_locked() const noexcept {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  completion_cells_.for_each([&](const Completions& local) {
    count += local.count.load(std::memory_order_relaxed);
    sum_ns += local.sum_ns.load(std::memory_order_relaxed);
  });
  const std::uint64_t pending = count - folded_count_;
  if (pending > 0) {
    const double mean_us = static_cast<double>(sum_ns - folded_sum_ns_) /
                           (1000.0 * static_cast<double>(pending));
    const double seen = ewma_us_.load(std::memory_order_relaxed);
    // n equal-weight samples of mean µ applied to an EWMA in closed form:
    // ewma' = µ + (ewma - µ)(1 - α)^n; a batch of one is exactly the
    // per-sample update, so sequential (test) use is bit-exact.
    const double next =
        seen == 0.0 ? mean_us
                    : mean_us + (seen - mean_us) *
                                    std::pow(1.0 - config_.ewma_alpha,
                                             static_cast<double>(pending));
    ewma_us_.store(next, std::memory_order_relaxed);
    folded_count_ = count;
    folded_sum_ns_ = sum_ns;
  }
  overload_cached_.store(config_.overload_latency_us > 0.0 &&
                             ewma_us_.load(std::memory_order_relaxed) >
                                 config_.overload_latency_us,
                         std::memory_order_relaxed);
}

void AdmissionGate::fold_completions() const noexcept {
  std::lock_guard lock{fold_mutex_};
  apply_fold_locked();
}

bool AdmissionGate::try_fold_completions() const noexcept {
  std::unique_lock lock{fold_mutex_, std::try_to_lock};
  if (!lock.owns_lock()) return false;  // a racing fold is already at it
  apply_fold_locked();
  return true;
}

double AdmissionGate::ewma_latency_us() const noexcept {
  fold_completions();
  return ewma_us_.load(std::memory_order_relaxed);
}

bool AdmissionGate::overloaded() const noexcept {
  fold_completions();
  return overload_cached_.load(std::memory_order_relaxed);
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
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::lock_guard lock{mutex_};
  Entry& entry = entries_[PairKey{s, t}];
  has_entries_.store(true, std::memory_order_release);
  if (entry.epoch != epoch) entry = Entry{.epoch = epoch};
  if (!disconnected) {
    entry.streak = 0;
    entry.open = false;
    return;
  }
  if (entry.open) return;  // already open; nothing to count
  if (++entry.streak >= threshold_) {
    entry.open = true;
    trips_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace hhc::query
