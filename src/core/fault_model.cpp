#include "core/fault_model.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <set>
#include <stdexcept>
#include <utility>

namespace hhc::core {

void ActiveFaults::index() {
  const std::size_t n = facts_.size();
  std::size_t slots = 2;
  while (slots < 2 * n) slots *= 2;
  std::size_t words = 1;  // 64 filter bits per fact
  while (words < n) words *= 2;
  slots_.assign(slots, Fact{kFree, 0});
  filter_.assign(words, 0);
  slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  filter_shift_ = 58 - static_cast<unsigned>(std::countr_zero(words));
  const std::size_t mask = slots - 1;
  // A fact active through two windows arrives twice: the set keeps the
  // first, and facts_ is compacted to one copy of each, in order.
  std::size_t kept = 0;
  for (std::size_t f = 0; f < n; ++f) {
    const Fact k = facts_[f];
    const std::uint64_t h = hash(k.a, k.b);
    auto i = static_cast<std::size_t>(h >> slot_shift_);
    while (slots_[i].a != kFree && (slots_[i].a != k.a || slots_[i].b != k.b)) {
      i = (i + 1) & mask;
    }
    if (slots_[i].a != kFree) continue;  // a duplicate
    slots_[i] = k;
    const std::uint64_t bit = h >> filter_shift_;
    filter_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    facts_[kept++] = k;
  }
  facts_.resize(kept);
}

std::uint64_t FaultModel::Stamp::next() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void FaultModel::fail_node(Node v, std::uint64_t fail_time,
                           std::uint64_t repair_time) {
  if (fail_time >= repair_time) {
    throw std::invalid_argument("FaultModel::fail_node: empty fault window");
  }
  record(v, v, fail_time, repair_time);
}

void FaultModel::fail_link(Node u, Node v, std::uint64_t fail_time,
                           std::uint64_t repair_time) {
  if (u == v) {
    throw std::invalid_argument("FaultModel::fail_link: self-loop");
  }
  if (fail_time >= repair_time) {
    throw std::invalid_argument("FaultModel::fail_link: empty fault window");
  }
  record(std::min(u, v), std::max(u, v), fail_time, repair_time);
}

void FaultModel::record(Node a, Node b, std::uint64_t fail_time,
                        std::uint64_t repair_time) {
  // Inserts after every element not greater than `value` (by `key`): an
  // in-order registration appends.
  const auto insert = [](auto& sorted, const auto& value, auto key) {
    sorted.insert(
        std::ranges::upper_bound(sorted, std::invoke(key, value), {}, key),
        value);
  };
  const TimedFact fact{fail_time, repair_time, a, b};
  if (repair_time == kNeverRepaired) {
    insert(permanent_, fact, &TimedFact::fail_time);
  } else {
    insert(transient_, fact, &TimedFact::fail_time);
    insert(repair_times_, repair_time, std::identity{});
    longest_transient_ =
        std::max(longest_transient_, repair_time - fail_time);
  }
  version_.renew();
}

const ActiveFaults& FaultModel::snapshot(std::uint64_t time) const {
  thread_local ActiveFaults active;
  if (!active.covers(version(), time)) resolve(time, active);
  return active;
}

void FaultModel::resolve(std::uint64_t time, ActiveFaults& out) const {
  out.version_ = 0;  // covers nothing until the rebuild completes
  // [from, until): the latest window boundary at or before `time` and the
  // earliest one after it, read off each sorted boundary list.
  std::uint64_t from = 0;
  std::uint64_t until = kNeverRepaired;
  const auto narrow = [&](const auto& sorted, auto key) {
    const auto after = std::ranges::upper_bound(sorted, time, {}, key);
    if (after != sorted.begin()) {
      from = std::max(from, std::invoke(key, *(after - 1)));
    }
    if (after != sorted.end()) {
      until = std::min(until, std::invoke(key, *after));
    }
    return after;
  };
  const auto permanent_end = narrow(permanent_, &TimedFact::fail_time);
  const auto transient_end = narrow(transient_, &TimedFact::fail_time);
  narrow(repair_times_, std::identity{});
  // A permanent window's repair boundary, kNeverRepaired, is at or before
  // only the last representable time, where no permanent fault is active.
  const bool last_time = time == kNeverRepaired;
  if (last_time && !permanent_.empty()) from = kNeverRepaired;

  out.facts_.clear();
  if (!last_time) {
    for (auto it = permanent_.begin(); it != permanent_end; ++it) {
      out.facts_.push_back({it->a, it->b});
    }
  }
  // A transient window active at `time` failed after time - longest.
  const std::uint64_t oldest =
      time > longest_transient_ ? time - longest_transient_ : 0;
  for (auto it = std::ranges::lower_bound(transient_.begin(), transient_end,
                                          oldest, {}, &TimedFact::fail_time);
       it != transient_end; ++it) {
    if (it->repair_time > time) out.facts_.push_back({it->a, it->b});
  }
  out.index();
  out.valid_from_ = from;
  out.valid_until_ = until;
  out.version_ = version();
}

FaultModel FaultModel::random(const HhcTopology& net, const RandomSpec& spec,
                              Node s, Node t, util::Xoshiro256& rng) {
  const std::uint64_t nodes = net.node_count();
  const std::uint64_t excluded = s == t ? 1 : 2;
  if (spec.node_faults + excluded > nodes) {
    throw std::invalid_argument(
        "FaultModel::random: more node faults than non-endpoint nodes");
  }
  // Every node has m internal edges (each shared by two nodes) and one
  // external edge (also shared): N*m/2 internal and N/2 external links.
  const std::uint64_t internal_links = nodes * net.m() / 2;
  const std::uint64_t external_links = nodes / 2;
  if (spec.internal_link_faults > internal_links) {
    throw std::invalid_argument(
        "FaultModel::random: more internal link faults than internal links");
  }
  if (spec.external_link_faults > external_links) {
    throw std::invalid_argument(
        "FaultModel::random: more external link faults than external links");
  }

  FaultModel model;
  // The facts drawn so far, a node v as (v, v) and a link by its normalized
  // pair: a repeat draw is rejected and drawn again.
  std::set<std::pair<Node, Node>> drawn;
  const auto fresh = [&drawn](Node u, Node v) {
    return drawn.emplace(std::min(u, v), std::max(u, v)).second;
  };
  std::size_t placed = 0;
  while (placed < spec.node_faults) {
    const Node v = rng.below(nodes);
    if (v == s || v == t || !fresh(v, v)) continue;
    model.fail_node(v, spec.fail_time, spec.repair_time);
    ++placed;
  }
  placed = 0;
  while (placed < spec.internal_link_faults) {
    const Node u = rng.below(nodes);
    const Node v = net.internal_neighbor(
        u, static_cast<unsigned>(rng.below(net.m())));
    if (!fresh(u, v)) continue;
    model.fail_link(u, v, spec.fail_time, spec.repair_time);
    ++placed;
  }
  placed = 0;
  while (placed < spec.external_link_faults) {
    const Node u = rng.below(nodes);
    const Node v = net.external_neighbor(u);
    if (!fresh(u, v)) continue;
    model.fail_link(u, v, spec.fail_time, spec.repair_time);
    ++placed;
  }
  return model;
}

}  // namespace hhc::core
