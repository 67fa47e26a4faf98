#include "fault/adaptive_router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "core/disjoint.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/bitops.hpp"

namespace hhc::fault {

using core::ActiveFaults;
using core::FaultModel;
using core::Node;
using core::Path;

namespace {

// HhcTopology::external_neighbor without its range check: flips bit
// dec(Y) of X, i.e. address bit m + Y.
Node external_neighbor(Node v, unsigned m) noexcept {
  return bits::flip(v, m + static_cast<unsigned>(v & bits::low_mask(m)));
}

// This thread's snapshot of the faults a query reads. Re-resolved only
// when the query's model or time falls outside what it covers, so a run
// of queries against one model inside one fault interval resolves once.
const ActiveFaults& active_faults(const FaultModel& faults,
                                  std::uint64_t time) {
  thread_local ActiveFaults snapshot;
  if (!snapshot.covers(faults.version(), time)) faults.resolve(time, snapshot);
  return snapshot;
}

// Views a container generically: `view.path_count()`, `view.path_size(i)`,
// `view.node(i, j)`. Implemented by core::ContainerHandle (cached, lazily
// relabeled) and by RefSetView below (scratch-built) so survivability is
// checked WITHOUT materializing any path — only the chosen one is copied.
struct RefSetView {
  std::span<const core::PathRef> paths;
  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths.size();
  }
  [[nodiscard]] std::size_t path_size(std::size_t i) const noexcept {
    return paths[i].size();
  }
  [[nodiscard]] Node node(std::size_t i, std::size_t j) const noexcept {
    return paths[i][j];
  }
};

// Every hop of path i traversable in the snapshot. route() has already
// found both endpoints healthy, so a hop checks only its link and, unless
// it enters t, the node it enters.
template <typename View>
bool path_survives(const View& view, std::size_t i,
                   const ActiveFaults& active) {
  const std::size_t last = view.path_size(i) - 1;
  Node u = view.node(i, 0);
  for (std::size_t j = 1; j <= last; ++j) {
    const Node v = view.node(i, j);
    if (j < last && active.node_faulty(v)) return false;
    if (active.link_faulty(u, v)) return false;
    u = v;
  }
  return true;
}

// Scans the container for surviving paths; keeps the first strictly
// shortest survivor (same selection as the historical Path* scan) and
// materializes only that one.
template <typename View>
void select_survivor(const View& view, const ActiveFaults& active,
                     query::RouteResult& result) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t best = kNone;
  for (std::size_t i = 0; i < view.path_count(); ++i) {
    if (!path_survives(view, i, active)) {
      ++result.container_paths_blocked;
      continue;
    }
    if (best == kNone || view.path_size(i) < view.path_size(best)) best = i;
  }
  if (best == kNone) return;
  Path path;
  path.reserve(view.path_size(best));
  for (std::size_t j = 0; j < view.path_size(best); ++j) {
    path.push_back(view.node(best, j));
  }
  result.paths.push_back(std::move(path));
  result.level = query::DegradationLevel::kGuaranteed;
}

// Per-thread survivor-BFS state, reused across sweeps so that a sweep
// whose working set fits what earlier sweeps grew allocates nothing.
//
// `slots_` is an open-addressing (linear probing, load <= 1/2) map from a
// node to what this sweep knows about it. A slot belongs to the current
// sweep only while its stamp equals `epoch_`, so starting a sweep is one
// increment rather than a clear; when the stamp wraps, every slot is
// cleared once. The stamp is 16 bits (a slot is 16 bytes either way) so
// that a test can cross the wrap in a fraction of a second.
class SweepScratch {
 public:
  // A live slot's mark. kDead and kHealthy record a probed node neither
  // side has reached. Any other value means reached: kFromT is set when
  // the search from t reached it, and the low bits are kRoot for s and t
  // themselves, else 0..m naming the dimension of the edge from its BFS
  // parent (m = the external edge).
  static constexpr std::uint8_t kFromT = 0x40;
  static constexpr std::uint8_t kRoot = 0x3F;
  static constexpr std::uint8_t kDead = 0xFE;
  static constexpr std::uint8_t kHealthy = 0xFF;

  [[nodiscard]] static bool reached(std::uint8_t mark) noexcept {
    return mark < kDead;
  }

  struct Slot {
    Node node = 0;
    std::uint16_t stamp = 0;
    std::uint8_t mark = 0;
  };

  /// Forgets the previous sweep and returns the emptied FIFOs, one for
  /// the search from s and one for the search from t.
  std::array<std::vector<Node>, 2>& begin() {
    if (++epoch_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 1;
    }
    size_ = 0;
    for (std::vector<Node>& fifo : fifos_) fifo.clear();
    return fifos_;
  }

  /// Room for `extra` more nodes without a rehash, so Slot references
  /// taken afterwards stay valid. The map never holds more than
  /// `node_count` keys, which caps the table at twice the node count.
  void reserve(std::size_t extra, std::uint64_t node_count) {
    const std::size_t keys = static_cast<std::size_t>(
        std::min<std::uint64_t>(size_ + extra, node_count));
    if (2 * keys <= slots_.size()) return;
    std::size_t capacity = std::max<std::size_t>(slots_.size(), 256);
    while (2 * keys > capacity) capacity *= 2;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.stamp == epoch_) find(slot.node) = slot;
    }
  }

  /// The slot holding `v` this sweep, or the free slot where it would go.
  Slot& find(Node v) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >>
                                             shift_);
    while (slots_[i].stamp == epoch_ && slots_[i].node != v) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  [[nodiscard]] bool live(const Slot& slot) const noexcept {
    return slot.stamp == epoch_;
  }

  /// Records `mark` for `v` in its slot (from find(v); reserve first).
  void set(Slot& slot, Node v, std::uint8_t mark) noexcept {
    if (!live(slot)) {
      slot.node = v;
      slot.stamp = epoch_;
      ++size_;
    }
    slot.mark = mark;
  }

  /// The path s -> x -> y -> t over the usable edge {x, y}, where the
  /// search from s reached x after `x_hops` edges and the search from t
  /// reached y after `y_hops`. Both halves are read back through the
  /// parent marks; allocates exactly the returned path.
  Path join(unsigned m, Node x, std::size_t x_hops, Node y,
            std::size_t y_hops) {
    Path path(x_hops + y_hops + 2);
    path[x_hops] = x;
    for (std::size_t i = x_hops; i > 0; --i) path[i - 1] = parent(m, path[i]);
    path[x_hops + 1] = y;
    for (std::size_t i = x_hops + 1; i + 1 < path.size(); ++i) {
      path[i + 1] = parent(m, path[i]);
    }
    return path;
  }

 private:
  Node parent(unsigned m, Node v) {
    const unsigned dim = find(v).mark & kRoot;
    return dim < m ? bits::flip(v, dim) : external_neighbor(v, m);
  }

  std::vector<Slot> slots_;
  std::array<std::vector<Node>, 2> fifos_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
  std::uint16_t epoch_ = 0;
};

SweepScratch& tls_sweep_scratch() {
  thread_local SweepScratch scratch;
  return scratch;
}

// Level-synchronous bidirectional BFS over the implicit topology restricted
// to usable edges; empty when t is unreachable. One search grows from s and
// one from t, each through its own FIFO. A step expands one whole level of
// whichever side's current level holds fewer nodes (s on a tie), visiting
// neighbors in HhcTopology::neighbors order (internal dimensions ascending,
// then external). A usable edge from the expanding side to a node the
// other side has reached is a meeting point, and the first one is
// returned: a shortest path, so the detour has the one-sided BFS's hop
// count. Before a step, the nodes within a hops of s and those within b
// hops of t (a, b the two current depths) are disjoint, or an earlier step
// would have met; so dist(s, t) > a + b, and a meeting at this step has
// length a + b + 1. When either side's level comes up empty, that side's
// component is exhausted and t is unreachable: an isolated t ends the
// search after t's own expansion, whatever the size of s's component.
//
// Each fact is checked at most once per side, in the snapshot: u is never
// re-checked (it is s or t, which route() found healthy, or was reached
// over a usable edge); a neighbor's health is checked on first sight and
// kept in its mark; and a link inside one side's tree is checked only
// from the endpoint that side expands first, since the side has reached
// the other endpoint by the time it expands it. A link between the two
// trees may be checked once from each side.
//
// Cooperatively cancellable: every util::kStopCheckStride expansions,
// counted across both sides, the query's deadline/token are polled, and an
// expired search sets `timed_out` and returns empty — a hostile fault set
// can make this sweep visit a whole survivor component, which is exactly
// the stage a deadline must be able to interrupt.
Path survivor_bfs(const core::HhcTopology& net, Node s, Node t,
                  const ActiveFaults& active, const query::PairQuery& query,
                  bool& timed_out) {
  SweepScratch& scratch = tls_sweep_scratch();
  std::array<std::vector<Node>, 2>& fifos = scratch.begin();
  const unsigned m = net.m();
  const std::uint64_t node_count = net.node_count();
  scratch.reserve(2, node_count);
  scratch.set(scratch.find(s), s, SweepScratch::kRoot);
  scratch.set(scratch.find(t), t, SweepScratch::kFromT | SweepScratch::kRoot);
  fifos[0].push_back(s);
  fifos[1].push_back(t);
  // Per side (0 = from s, 1 = from t): its current level is
  // fifos[side][head[side], end), at depth[side] hops from its root.
  std::array<std::size_t, 2> head{0, 0};
  std::array<std::size_t, 2> depth{0, 0};
  std::size_t expansions = 0;
  for (;;) {
    const std::size_t side =
        fifos[1].size() - head[1] < fifos[0].size() - head[0] ? 1 : 0;
    std::vector<Node>& fifo = fifos[side];
    const std::uint8_t own = side == 0 ? 0 : SweepScratch::kFromT;
    const std::size_t end = fifo.size();
    for (; head[side] < end; ++head[side]) {
      if (++expansions % util::kStopCheckStride == 0 &&
          util::should_stop(query.deadline, query.cancel)) {
        timed_out = true;
        return {};
      }
      const Node u = fifo[head[side]];
      scratch.reserve(m + 1, node_count);
      for (unsigned dim = 0; dim <= m; ++dim) {
        const Node v = dim < m ? bits::flip(u, dim) : external_neighbor(u, m);
        SweepScratch::Slot& slot = scratch.find(v);
        if (scratch.live(slot)) {
          if (SweepScratch::reached(slot.mark)) {
            if ((slot.mark & SweepScratch::kFromT) == own ||
                active.link_faulty(u, v)) {
              continue;
            }
            return side == 0 ? scratch.join(m, u, depth[0], v, depth[1])
                             : scratch.join(m, v, depth[0], u, depth[1]);
          }
          if (slot.mark == SweepScratch::kDead) continue;
        } else if (active.node_faulty(v)) {
          scratch.set(slot, v, SweepScratch::kDead);
          continue;
        } else {
          scratch.set(slot, v, SweepScratch::kHealthy);
        }
        if (active.link_faulty(u, v)) continue;
        slot.mark = static_cast<std::uint8_t>(own | dim);
        fifo.push_back(v);
      }
    }
    if (fifo.size() == end) return {};  // this side's component is exhausted
    ++depth[side];
  }
}

}  // namespace

query::RouteResult AdaptiveRouter::route(const query::PairQuery& query,
                                         const RouteLimits& limits) const {
  static const FaultModel kNoFaults;
  const FaultModel& faults = query.faults != nullptr ? *query.faults : kNoFaults;
  const Node s = query.s;
  const Node t = query.t;

  const ActiveFaults& active = active_faults(faults, query.time);

  query::RouteResult result;
  if (active.node_faulty(s) || active.node_faulty(t)) {
    return result;  // a dead endpoint is disconnection, not an error
  }
  if (s == t) {
    result.paths = {Path{s}};
    result.level = query::DegradationLevel::kGuaranteed;
    return result;
  }

  // Stage boundary: an already-expired query must not pay for a container
  // lookup (which may run the whole construction on a cache miss).
  if (util::should_stop(query.deadline, query.cancel)) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }

  {
    static obs::Histogram& scan_hist =
        obs::stage_histogram(obs::stages::kContainerScan);
    obs::TraceSpan span{obs::stages::kContainerScan, &scan_hist};
    if (cache_ != nullptr) {
      const core::ContainerHandle handle =
          cache_->lookup(s, t, query.options, &result.cache_hit);
      select_survivor(handle, active, result);
    } else {
      const core::DisjointPathSetRef container = core::node_disjoint_paths(
          net_, s, t, query.options, core::tls_construction_scratch());
      select_survivor(RefSetView{container.paths}, active, result);
    }
  }
  if (!result.paths.empty()) return result;

  // Degraded admission: the scan found no survivor and the service told us
  // the BFS sweep is too expensive right now. The kDisconnected verdict is
  // best-effort, so the outcome says kShed, not kOk.
  if (limits.skip_fallback) {
    result.outcome = query::RouteOutcome::kShed;
    return result;
  }
  // Stage boundary before committing a worker to the survivor sweep.
  if (util::should_stop(query.deadline, query.cancel)) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }

  result.used_fallback = true;
  static obs::Histogram& fallback_hist =
      obs::stage_histogram(obs::stages::kBfsFallback);
  obs::TraceSpan span{obs::stages::kBfsFallback, &fallback_hist};
  bool timed_out = false;
  Path detour = survivor_bfs(net_, s, t, active, query, timed_out);
  if (timed_out) {
    result.outcome = query::RouteOutcome::kTimedOut;
    return result;
  }
  result.level = detour.empty() ? query::DegradationLevel::kDisconnected
                                : query::DegradationLevel::kBestEffort;
  if (!detour.empty()) result.paths.push_back(std::move(detour));
  return result;
}

}  // namespace hhc::fault
