// Byte-range dynamic dependence analysis.
//
// The paper's runtime extends BDDT [23], which discovers inter-task
// dependencies from the programmer's in()/out() clauses.  This module keeps
// BDDT's rules — for every location the last writer and the readers since
// that write; RAW, WAR and WAW edges derived when a new task registers its
// footprint — but applies them to exact byte ranges rather than fixed-size
// blocks, splitting regions at clause boundaries the way Nanos6's region
// dependency system does (Perez et al., "Improving the integration of task
// nesting and dependencies in OpenMP", IPDPS 2017).  Two clauses conflict
// exactly when their bytes overlap and one of them writes, and a clause
// costs one region operation per stripe it touches, whatever its length.
//
// The tracker is policy-agnostic: it neither schedules nor executes.  The
// runtime registers each task at spawn time and notifies completion from
// worker threads.  Unlike the paper's single bookkeeping lock (§3.4 argues
// one is acceptable for coarse tasks), the tracker is striped so that
// fine-grained dependent workloads scale:
//
//   * Stripes.  Addresses are hashed onto stripes at a fixed internal
//     granule (kGranuleBytes).  A clause's stripe set is the stripes of the
//     granules it covers; a clause covering at least stripe-count granules
//     takes every stripe.  Within each aligned run of stripe-count granules
//     the stripes are a rotation (every stripe once); the rotation is a
//     Fibonacci hash of the run index, so separate buffers scatter.
//   * Regions.  Each stripe holds an ordered map of disjoint byte regions
//     [lo, hi), each with a last writer and a reader list.  A clause is
//     recorded with its whole byte range in every stripe of its set: it
//     splits the stripe's regions at its two ends, updates every region it
//     overlaps and fills the gaps with new regions.  Neighbours left with
//     equal state merge again.  A region that no longer holds a writer or
//     a reader is vacant: it counts as erased (it pins nothing and is no
//     live region), and its slot stays in place for the next clause over
//     the same bytes, so a recurring footprint does not reshape the map.
//     Vacant regions are swept out in bulk once they outnumber the live
//     ones, so a map holds only the fragments of clauses in flight plus a
//     bounded slack.  Reader lists are reset, never freed, so a map that
//     has reached its high-water shape allocates nothing.
//   * Authority.  A stripe is authoritative for the bytes of its own
//     granules: every clause covering such a byte is recorded there, so its
//     regions hold that byte's exact history.  Edges are derived only from
//     a region containing such a byte.  The bytes of other granules that a
//     wide clause carries into the stripe update state but derive nothing —
//     their own stripe derives those edges — so the predecessor set is
//     exactly that of one global byte-range map.
//   * Locking.  register_node() computes the stripe set of the whole
//     footprint up front and takes those stripe locks in ascending stripe
//     order before touching any of them.  Conflicting registrations
//     therefore serialize in one consistent order across every shared
//     stripe, which is what keeps the discovered task graph acyclic;
//     disjoint footprints proceed in parallel.  Once all are held, each
//     stripe is released right after the node's last clause recorded there
//     (two-phase locking: no lock is taken after one is dropped, so the
//     order stands), so completions do not wait for a wide footprint's
//     last stripe.  complete() visits the stripes of the node's clause
//     ranges one at a time and looks its regions up by those ranges, so it
//     also finds the fragments that later splits created.
//   * Per-node dependence state lives outside the stripe locks: an atomic
//     done_ flag and a spinlocked dependents_ list implement a
//     publish/observe protocol (see "Node-state protocol" below) so that
//     link() under one stripe can race complete() of the same predecessor
//     without lost wakeups or double releases.
//
// Node-state protocol.  complete() first acquires the node's dep_lock_,
// stores done_ = true (release) and harvests the dependents list; only
// then does it visit the stripes to drop the node's region pins.  A racing
// link() checks done_ (acquire) before and after taking the same
// dep_lock_: if it observes done_, the predecessor's side effects are
// already visible (the acquire pairs with complete's release) and no edge
// is needed; otherwise the append happens under the lock and complete() is
// guaranteed to harvest it.  An edge is counted in register_node()'s
// return value exactly when the corresponding dependents entry was
// appended, so the caller's gate arithmetic always balances.
//
// Lock order (deadlock freedom): stripe locks are only ever acquired in
// ascending stripe order, and a node's dep_lock_ is only acquired either
// alone (complete phase 1) or while holding stripe locks (link), never
// the other way around.
//
// Lifetime: the tracker circulates raw Node* and pins nodes through the
// intrusive ref_retain()/ref_release() hooks — one shared reference
// covering all of a node's region pins (one per region naming it as writer
// or reader, counted by Node::pin_count_; a split that copies a writer or
// readers adds pins under the stripe lock, a merge drops them, and a
// surplus hold keeps the count above zero until the node's own
// registration has counted its pins) and one reference per
// dependents-list entry.  complete() removes every region pin
// of the completing node, so after complete() returns the tracker holds no
// pointer to it.  For sigrt::Task the hooks drive the pooled intrusive
// refcount; for plain Nodes (tests) they default to no-ops and the caller
// must keep a registered node alive until it completes (the tracker may
// read it on any later registration of an overlapping range).  The
// destructor drops any remaining regions without touching the nodes: with
// every registered node completed (the runtime barriers before teardown)
// there are none, and never-completed test nodes are simply forgotten.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "support/spinlock.hpp"

namespace sigrt::dep {

/// Access direction of one clause.  In ≡ in(), Out ≡ out(), InOut ≡ inout().
enum class Mode : std::uint8_t {
  In = 1,
  Out = 2,
  InOut = 3,
};

[[nodiscard]] constexpr bool reads(Mode m) noexcept {
  return (static_cast<std::uint8_t>(m) & static_cast<std::uint8_t>(Mode::In)) != 0;
}
[[nodiscard]] constexpr bool writes(Mode m) noexcept {
  return (static_cast<std::uint8_t>(m) & static_cast<std::uint8_t>(Mode::Out)) != 0;
}

/// One data-flow clause: a byte range plus its direction.
struct Access {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
  Mode mode = Mode::In;
};

/// Convenience constructors mirroring the pragma clause names.
template <typename T>
[[nodiscard]] Access in(const T* p, std::size_t count = 1) {
  return {p, count * sizeof(T), Mode::In};
}
template <typename T>
[[nodiscard]] Access out(T* p, std::size_t count = 1) {
  return {p, count * sizeof(T), Mode::Out};
}
template <typename T>
[[nodiscard]] Access inout(T* p, std::size_t count = 1) {
  return {p, count * sizeof(T), Mode::InOut};
}

/// Participant in dependence tracking.  sigrt::Task derives from this.
/// done_ and dependents_ are the publish/observe half of the protocol in
/// the header comment (dep_lock_ + atomics, touched by link/complete from
/// any thread); ranges_ is only ever written by the registering thread and
/// read by the completing one, which the runtime orders through the task's
/// publication to the scheduler.
class Node {
 public:
  virtual ~Node() = default;

  /// Lifetime hooks: the tracker retains a node for as long as it appears
  /// in dependence state (a region or a dependents list) and releases it
  /// when that slot is dropped or handed to the caller.  Defaults are
  /// no-ops so standalone Nodes (tests) need no refcount — their owner
  /// keeps them alive until complete().
  virtual void ref_retain() noexcept {}
  virtual void ref_release() noexcept {}

 protected:
  /// Restores the tracker-owned fields to their freshly-constructed state;
  /// used by pooled subclasses when a slot is recycled.  A non-empty
  /// dependents list here means the node is being recycled without having
  /// gone through complete() (abnormal teardown): the retained successor
  /// references are dropped so their slots still recycle.  The vectors
  /// keep their capacity — part of the zero-allocation steady state.
  /// Pool-recycle path: the slot is exclusively owned (refcount already
  /// zero), so dependents_ is accessed without dep_lock_ by protocol.
  void reset_dep_state() noexcept SIGRT_NO_THREAD_SAFETY_ANALYSIS {
    for (Node* d : dependents_) d->ref_release();
    dependents_.clear();
    ranges_.clear();
    visit_stamp_.store(0, std::memory_order_relaxed);
    pin_count_.store(0, std::memory_order_relaxed);
    done_.store(false, std::memory_order_relaxed);
  }

 private:
  friend class BlockTracker;

  /// One registered clause: its bytes [lo, hi) and the stripes that
  /// recorded it.
  struct Range {
    std::uint64_t lo;
    std::uint64_t hi;
    std::uint64_t stripes;
  };

  /// Guards dependents_ and the done_ publish edge (node-state protocol).
  support::SpinLock dep_lock_;
  /// Set (release) under dep_lock_ by complete(); read lock-free (acquire)
  /// by link()'s fast path, hence atomic rather than SIGRT_GUARDED_BY.
  std::atomic<bool> done_{false};
  /// Successors; one retained ref each.
  std::vector<Node*> dependents_ SIGRT_GUARDED_BY(dep_lock_);
  /// The clause ranges this node registered; complete() looks its region
  /// pins up by them.
  std::vector<Range> ranges_;
  /// De-duplication during one registration; stamp values are
  /// process-unique, so a stale stamp can never false-positive.
  std::atomic<std::uint64_t> visit_stamp_{0};
  /// Live region pins.  All pins share a single retained reference:
  /// register_node() retains once under a surplus hold and trades the hold
  /// for its parks at the end; whoever adds a pin (a split) increments,
  /// whoever drops one (a displacing writer, a merge, complete() phase 2)
  /// decrements, and the count's zero crossing releases the shared
  /// reference.  This keeps the per-region cost to one relaxed RMW instead
  /// of two virtual refcount hooks.
  std::atomic<std::uint32_t> pin_count_{0};
};

/// Aggregate counters for tests and diagnostics.
struct TrackerStats {
  std::uint64_t registered_nodes = 0;
  std::uint64_t edges = 0;         // dependency edges discovered
  std::uint64_t live_regions = 0;  // regions holding a writer or reader now
};

class BlockTracker {
 public:
  /// Stripe-count ceiling: a whole footprint's stripe set fits into one
  /// uint64 mask, which makes sorted-order multi-stripe locking a ctz loop.
  static constexpr unsigned kMaxStripes = 64;

  /// Address granule of the stripe hash (a cache line): cells of one array
  /// spread over stripes, and a clause of stripe-count granules or more
  /// takes every stripe.  It only selects locks; dependences are exact.
  static constexpr unsigned kGranuleShift = 6;
  static constexpr std::size_t kGranuleBytes = std::size_t{1} << kGranuleShift;

  /// Vacant regions a stripe keeps for reuse before it sweeps them.
  static constexpr std::size_t kSweepAt = 32;

  /// `stripes` selects the live stripe count — a power of two in
  /// [1, kMaxStripes]; 0 selects the ceiling.  Small machines waste no
  /// cache walking 64 mostly-empty shards; the runtime derives its value
  /// from the CPU topology (~4 stripes per worker, see
  /// topo::Topology::recommended_stripes).
  explicit BlockTracker(unsigned stripes = 0);

  BlockTracker(const BlockTracker&) = delete;
  BlockTracker& operator=(const BlockTracker&) = delete;

  /// Registers `node`'s footprint and wires edges from every unfinished
  /// predecessor (RAW/WAR/WAW).  Returns the number of predecessors found;
  /// the caller must arrange for the node to stay unreleased until that many
  /// complete() notifications have named it as a dependent.  Predecessors
  /// may complete concurrently with the registration — callers seed their
  /// gate with a surplus hold (see Runtime::spawn_impl) so early
  /// notifications cannot zero it before this count is folded in.  A node
  /// registers at most once per life (between reset_dep_state() calls).
  /// TSA opt-out: operates under the dynamic stripe set of lock_stripes()
  /// (ascending-order mask locking, inexpressible statically).
  std::size_t register_node(Node* node, std::span<const Access> accesses)
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;

  /// Marks `node` complete, drops every region pin still naming it (the
  /// tracker holds no pointer to the node afterwards) and appends the
  /// dependents recorded so far to `out` (which is NOT cleared — callers
  /// reuse scratch buffers).  Each appended pointer carries one retained
  /// reference that the caller adopts: decrement the dependent's gate,
  /// then ref_release() it (or hand the reference on).  Nodes registered
  /// afterwards no longer depend on `node`.
  void complete(Node& node, std::vector<Node*>& out);

  /// Forgets all history.  Only valid when no tasks are in flight (every
  /// registered node completed), so the dropped regions pin nothing.
  void reset();

  [[nodiscard]] TrackerStats stats() const;
  [[nodiscard]] unsigned stripe_count() const noexcept { return stripe_count_; }

 private:
  /// One region: the bytes [lo, hi), the last writer and the readers since
  /// that write.  Each non-null entry is one pin of that node.
  struct Region {
    std::uint64_t lo;
    std::uint64_t hi;
    Node* writer;
    std::vector<Node*> readers;
  };

  /// One shard of the region map.  Padded so neighbouring stripes never
  /// share a cache line under concurrent register/complete traffic.
  struct alignas(64) Stripe {
    mutable support::SpinLock lock;
    /// Regions left vacant by complete(), not yet reused or swept.
    std::size_t vacant SIGRT_GUARDED_BY(lock) = 0;
    /// The ordered map: regions ordered by lo, pairwise disjoint.
    std::vector<Region> regions SIGRT_GUARDED_BY(lock);
    /// Reader lists of erased regions, capacity kept for the next insert.
    std::vector<std::vector<Node*>> spare SIGRT_GUARDED_BY(lock);
  };

  /// A vacant region holds no history: it stands for a gap whose slot a
  /// later clause can take without reshaping the map.
  [[nodiscard]] static bool is_vacant(const Region& r) noexcept {
    return r.writer == nullptr && r.readers.empty();
  }

  /// Pin bookkeeping of one map operation.  Pins of `self` (the node being
  /// registered) are counted in `parks` and published once at the end of
  /// the registration; pins of any other node are counted on the node.
  struct Pins {
    Node* self = nullptr;
    std::int64_t parks = 0;

    void add(Node* n) noexcept {
      if (n == self) {
        ++parks;
      } else {
        n->pin_count_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    void drop(Node* n) noexcept {
      if (n == self) {
        --parks;
      } else {
        unpin(n, 1);
      }
    }
  };

  [[nodiscard]] unsigned stripe_of(std::uint64_t granule) const noexcept {
    // stripe_count_ == 1 would need a shift by 64 (UB); short-circuit it.
    if (stripe_bits_ == 0) return 0;
    const std::uint64_t run = granule >> stripe_bits_;
    const std::uint64_t rotation =
        (run * 0x9E3779B97F4A7C15ULL) >> (64 - stripe_bits_);
    return static_cast<unsigned>((granule + rotation) & (stripe_count_ - 1));
  }

  /// Stripe set of the bytes [lo, hi); a range covering stripe-count
  /// granules short-circuits to every live stripe.
  [[nodiscard]] std::uint64_t stripe_mask(std::uint64_t lo,
                                          std::uint64_t hi) const noexcept;

  /// True when [lo, hi) holds a byte of a granule that hashes to stripe
  /// `s` — the bytes whose edges that stripe derives.
  [[nodiscard]] bool owns(unsigned s, std::uint64_t lo,
                          std::uint64_t hi) const noexcept;

  // Dynamic stripe sets (a ctz loop over a runtime mask, ascending order)
  // are beyond TSA's static capability tracking; the implementations and
  // every holder of a mask-locked region opt out with
  // SIGRT_NO_THREAD_SAFETY_ANALYSIS and rely on the documented ascending
  // lock order instead.
  void lock_stripes(std::uint64_t mask) noexcept SIGRT_NO_THREAD_SAFETY_ANALYSIS;

  /// Applies one clause [lo, hi) of the node in `pins.self` to stripe `s`,
  /// whose lock the caller holds.  Returns the edges it added.
  std::size_t record(unsigned s, std::uint64_t lo, std::uint64_t hi, Mode mode,
                     std::uint64_t stamp, Pins& pins)
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;

  // Ordered-map primitives; the caller holds the stripe's lock.
  /// Index of the first region with hi > addr.
  static std::size_t first_after(const Stripe& st, std::uint64_t addr)
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;
  /// Splits region i, which strictly contains `at`, in two, copying its
  /// state — one more pin for every node it names.
  static void split(Stripe& st, std::size_t i, std::uint64_t at, Pins& pins)
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;
  /// Inserts a region [lo, hi) with no history at index i.
  static Region& insert(Stripe& st, std::size_t i, std::uint64_t lo,
                        std::uint64_t hi) SIGRT_NO_THREAD_SAFETY_ANALYSIS;
  /// Erases region i, keeping its reader list's capacity.
  static void erase(Stripe& st, std::size_t i) SIGRT_NO_THREAD_SAFETY_ANALYSIS;
  /// Merges region i into region i-1 when they touch and hold equal,
  /// non-vacant state, dropping the duplicate pins.  True when merged.
  static bool merge_into_prev(Stripe& st, std::size_t i, Pins& pins)
      SIGRT_NO_THREAD_SAFETY_ANALYSIS;
  /// Erases every vacant region in one pass.
  static void sweep(Stripe& st) SIGRT_NO_THREAD_SAFETY_ANALYSIS;

  /// Adds an edge pred -> succ unless pred is done or already linked during
  /// this pass (visit stamp).  Returns true when an edge was added.  Must
  /// be called while holding the stripe lock that parked `pred` (the pin is
  /// what keeps the pointer alive).
  bool link(Node* pred, Node* succ, std::uint64_t stamp);

  /// Drops `n` region pins of `node`; the last pin releases the shared
  /// registration reference.  Caller must hold the stripe lock the pin was
  /// found under (which is what makes the pointer still dereferencable),
  /// or — for the completing node — a reference of its own.
  static void unpin(Node* node, std::uint32_t n) noexcept {
    if (node->pin_count_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      node->ref_release();
    }
  }

  const unsigned stripe_count_;  ///< live stripes (power of two <= kMaxStripes)
  const unsigned stripe_bits_;   ///< log2(stripe_count_)
  const std::uint64_t all_stripes_mask_;

  /// Storage is sized for the ceiling; only the first stripe_count_ entries
  /// are ever addressed (stripe_of masks into that prefix).
  std::array<Stripe, kMaxStripes> stripes_;

  /// Registration stamp source.  Starts at 1 so a freshly reset node's
  /// visit_stamp_ of 0 never matches a live stamp.
  std::atomic<std::uint64_t> stamp_{1};
  std::atomic<std::uint64_t> registered_nodes_{0};
  std::atomic<std::uint64_t> edges_{0};
};

}  // namespace sigrt::dep
