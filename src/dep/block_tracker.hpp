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
// costs one region operation, whatever its length.
//
// The tracker is policy-agnostic: it neither schedules nor executes.  The
// runtime registers each task at spawn time and notifies completion from
// worker threads.  As in the paper's runtime (§3.4), the region map sits
// under one lock; completions stay off it:
//
//   * Regions.  One ordered map of disjoint byte regions [lo, hi), each
//     with a last writer and a reader list.  A clause splits the regions at
//     its two ends, updates every region it overlaps and fills the gaps
//     with new regions.  Neighbours left with equal state merge again.  A
//     region that no longer holds a writer or a reader is vacant: it counts
//     as erased (it pins nothing and is no live region), and its slot stays
//     in place for the next clause over the same bytes, so a recurring
//     footprint does not reshape the map.  Vacant regions are swept out in
//     bulk once they outnumber the live ones, so the map holds only the
//     fragments of clauses in flight plus a bounded slack.  Reader lists
//     are reset, never freed, and dependents-list edges come from a free
//     list refilled in chunks that are never freed, so a tracker that has
//     reached its high-water shape allocates nothing.
//   * Locking.  Only register_node() takes the lock, once, and records
//     every clause under it.  Registrations therefore serialize, which is
//     what keeps the discovered task graph acyclic.  complete() takes no
//     lock: it closes the node's dependents list with one exchange and
//     pushes the node onto a lock-free retired list.  The next
//     registration drops the retired nodes' region pins under the lock it
//     holds anyway, and so do reclaim() (called after every top-level
//     barrier), reset() and stats().  So a region may name a completed
//     node until that drain, and link() recognises such a node by the
//     closed mark on its list: it makes no edge.  The rest of the per-node
//     dependence state (clause ranges, pins, visit stamp) is plain data
//     guarded by the tracker's lock.  The dependent workloads this runtime
//     targets carry an in() over a whole image or vector, which a sharded
//     map had to record on every shard; under one lock such a clause is
//     one acquisition and one region.
//
// Visibility: a predecessor's side effects happen before its complete().
// A registration that finds the predecessor's list closed read the mark
// with acquire from the closing exchange, and one that finds the
// predecessor drained acquires the lock after the drain, which took the
// node off the retired list with acquire; either way it sees those
// effects.  A dependent handed out by complete() rides the scheduler's
// publication edges instead.
//
// Lifetime: the tracker circulates raw Node* and pins nodes through the
// intrusive ref_retain()/ref_release() hooks — one shared reference
// covering all of a node's region pins (one per region naming it as writer
// or reader, counted by Node::pin_count_; a split that copies a writer or
// readers adds pins, a merge or a displacing writer drops them), one
// reference per dependents-list edge, and one for the retired list.
// After complete() returns, the tracker still holds the node until a later
// register_node(), reclaim(), reset() or stats() drops its region pins;
// that drain releases the retired-list reference after it unlocks, so no
// node recycles under the lock.  For sigrt::Task the hooks drive the
// pooled intrusive refcount; for plain Nodes (tests) they default to
// no-ops and the caller must keep a registered node alive until a drain
// after its complete() (the tracker may read it on any later registration
// of an overlapping range).  The destructor drops any remaining regions
// and retired nodes without touching the nodes: the runtime's last barrier
// reclaims before teardown, so there are none, and test nodes are simply
// forgotten.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
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
/// The private fields are the node's dependence state.  Clause ranges, pin
/// count and visit stamp are read and written only under the lock of the
/// tracker the node registered with (a guard the analysis cannot name from
/// here).  The dependents list is atomic: link() pushes under that lock,
/// complete() closes it without.  complete() writes harvested_ and
/// retired_next_ before its release push onto the retired list; the drain
/// reads them after its acquire swap.  reset_dep_state() runs on an
/// exclusively owned slot.
class Node {
 public:
  virtual ~Node() = default;

  /// Lifetime hooks: the tracker retains a node for as long as it appears
  /// in dependence state (a region, a dependents list or the retired list)
  /// and releases it when that slot is dropped or handed to the caller.
  /// Defaults are no-ops so standalone Nodes (tests) need no refcount —
  /// their owner keeps them alive until a drain after complete().
  virtual void ref_retain() noexcept {}
  virtual void ref_release() noexcept {}

 protected:
  /// Restores the tracker-owned fields to their freshly-constructed state;
  /// used by pooled subclasses when a slot is recycled.  An open, non-empty
  /// dependents list here means the node is being recycled without having
  /// gone through complete() (abnormal teardown): the retained successor
  /// references are dropped so their slots still recycle.  The ranges
  /// vector keeps its capacity — part of the zero-allocation steady state.
  void reset_dep_state() noexcept {
    Edge* const head = dependents_.load(std::memory_order_relaxed);
    if (head != closed()) {
      for (Edge* e = head; e != nullptr; e = e->next) e->succ->ref_release();
    }
    dependents_.store(nullptr, std::memory_order_relaxed);
    harvested_ = nullptr;
    retired_next_ = nullptr;
    ranges_.clear();
    visit_stamp_ = 0;
    pin_count_ = 0;
  }

 private:
  friend class BlockTracker;

  /// One dependents-list record: a successor (one retained reference) and
  /// the next record.  Records belong to the tracker's edge pool.
  struct Edge {
    Node* succ = nullptr;
    Edge* next = nullptr;
  };

  /// The mark complete() leaves on a dependents list: no edge can be added
  /// after it.  Never dereferenced.
  [[nodiscard]] static Edge* closed() noexcept {
    static constinit Edge mark;
    return &mark;
  }

  /// One registered clause: its bytes [lo, hi).
  struct Range {
    std::uint64_t lo;
    std::uint64_t hi;
  };

  /// Successors, newest first, or closed() once the node completed.
  std::atomic<Edge*> dependents_{nullptr};
  /// The list complete() closed, kept until the drain returns its records
  /// to the tracker's pool.
  Edge* harvested_ = nullptr;
  /// Link in the tracker's retired list.
  Node* retired_next_ = nullptr;
  /// The clause ranges this node registered; the drain after complete()
  /// looks its region pins up by them.  Empty before registration and
  /// after that drain.
  std::vector<Range> ranges_;
  /// De-duplication during one registration; stamps are never reused, so
  /// a stale stamp can never false-positive.
  std::uint64_t visit_stamp_ = 0;
  /// Live region pins.  All pins share a single retained reference:
  /// register_node() retains once and publishes its pins in one store;
  /// whoever adds a pin (a split) increments, whoever drops one (a
  /// displacing writer, a merge, the drain after complete()) decrements,
  /// and the count's zero crossing releases the shared reference.  This
  /// keeps the per-region cost to one increment instead of two virtual
  /// refcount hooks.
  std::uint32_t pin_count_ = 0;
};

/// Aggregate counters for tests and diagnostics.
struct TrackerStats {
  std::uint64_t registered_nodes = 0;
  std::uint64_t edges = 0;         // dependency edges discovered
  std::uint64_t live_regions = 0;  // regions holding a writer or reader now
};

/// Cache-line aligned: the lock and the map it guards share their own
/// lines, away from the owner's other fields, and the retired list that
/// completions push onto has a line of its own.
class alignas(64) BlockTracker {
 public:
  /// Vacant regions the map keeps for reuse before it sweeps them.
  static constexpr std::size_t kSweepAt = 32;
  /// Edge records carved per refill of the edge free list.
  static constexpr std::size_t kEdgeChunk = 64;

  BlockTracker() = default;
  BlockTracker(const BlockTracker&) = delete;
  BlockTracker& operator=(const BlockTracker&) = delete;

  /// Registers `node`'s footprint and wires edges from every unfinished
  /// predecessor (RAW/WAR/WAW).  Returns the number of predecessors found;
  /// the caller must arrange for the node to stay unreleased until that many
  /// complete() notifications have named it as a dependent.  A predecessor
  /// may complete as soon as its edge is pushed, before the registration
  /// returns and before the caller has folded the count into its gate —
  /// callers seed their gate with a surplus hold (see Runtime::spawn_impl)
  /// so early notifications cannot zero it first.  First drops the pins of
  /// the nodes completed since the last drain.  A node registers at most
  /// once per life (between reset_dep_state() calls).
  std::size_t register_node(Node* node, std::span<const Access> accesses);

  /// Closes `node`'s dependents list and appends the dependents recorded so
  /// far to `out` (which is NOT cleared — callers reuse scratch buffers),
  /// in registration order.  Each appended pointer carries one retained
  /// reference that the caller adopts: decrement the dependent's gate, then
  /// ref_release() it (or hand the reference on).  Nodes registered
  /// afterwards no longer depend on `node`.  Takes no lock: the node goes
  /// onto the retired list with one more retained reference, and the next
  /// drain drops its region pins and that reference.
  void complete(Node& node, std::vector<Node*>& out);

  /// Drops the region pins of every node completed so far.  One relaxed
  /// load when none completed since the last drain.  The runtime calls it
  /// after every top-level barrier, so a barrier leaves no live region and
  /// no pinned task.
  void reclaim();

  /// Forgets all history.  Only valid when no tasks are in flight (every
  /// registered node completed), so once the completed nodes are drained
  /// the dropped regions pin nothing.
  void reset();

  /// Drains completed nodes first, so `live_regions` counts only the
  /// regions of nodes that have not completed.
  [[nodiscard]] TrackerStats stats();

  /// Dependency edges discovered so far (no drain).
  [[nodiscard]] std::uint64_t edges() const;

 private:
  using Edge = Node::Edge;

  /// Nodes taken off the retired list.  Declared before the lock guard of
  /// the scope that drains them, so their retired-list references drop
  /// after the unlock: the last release recycles a task and destroys its
  /// body captures, which must not run under the lock.
  struct Drained {
    Node* list = nullptr;
    Drained() = default;
    Drained(const Drained&) = delete;
    Drained& operator=(const Drained&) = delete;
    ~Drained() {
      while (list != nullptr) {
        Node* const next = list->retired_next_;  // the release may recycle it
        list->ref_release();
        list = next;
      }
    }
  };

  /// One region: the bytes [lo, hi), the last writer and the readers since
  /// that write.  Each non-null entry is one pin of that node.
  struct Region {
    std::uint64_t lo;
    std::uint64_t hi;
    Node* writer;
    std::vector<Node*> readers;
  };

  /// A vacant region holds no history: it stands for a gap whose slot a
  /// later clause can take without reshaping the map.
  [[nodiscard]] static bool is_vacant(const Region& r) noexcept {
    return r.writer == nullptr && r.readers.empty();
  }

  /// Pin bookkeeping of one map operation.  Pins of `self` (the node being
  /// registered or drained) are counted in `parks` and published once at
  /// the end; pins of any other node are counted on the node.  Used only
  /// under the tracker's lock.
  struct Pins {
    Node* self = nullptr;
    std::int64_t parks = 0;

    void add(Node* n) noexcept {
      if (n == self) {
        ++parks;
      } else {
        ++n->pin_count_;
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

  /// Applies one clause [lo, hi) of the node in `pins.self`.  Returns the
  /// edges it added.
  std::size_t record(std::uint64_t lo, std::uint64_t hi, Mode mode,
                     std::uint64_t stamp, Pins& pins) SIGRT_REQUIRES(lock_);

  // Ordered-map primitives.
  /// Index of the first region with hi > addr.
  [[nodiscard]] std::size_t first_after(std::uint64_t addr) const
      SIGRT_REQUIRES(lock_);
  /// Splits region i, which strictly contains `at`, in two, copying its
  /// state — one more pin for every node it names.
  void split(std::size_t i, std::uint64_t at, Pins& pins) SIGRT_REQUIRES(lock_);
  /// Inserts a region [lo, hi) with no history at index i.
  Region& insert(std::size_t i, std::uint64_t lo, std::uint64_t hi)
      SIGRT_REQUIRES(lock_);
  /// Erases region i, keeping its reader list's capacity.
  void erase(std::size_t i) SIGRT_REQUIRES(lock_);
  /// Merges region i into region i-1 when they touch and hold equal,
  /// non-vacant state, dropping the duplicate pins.  True when merged.
  bool merge_into_prev(std::size_t i, Pins& pins) SIGRT_REQUIRES(lock_);
  /// Erases every vacant region in one pass.
  void sweep() SIGRT_REQUIRES(lock_);

  /// Adds an edge pred -> succ unless pred is already linked during this
  /// pass (visit stamp) or has completed (its list is closed).  Returns
  /// true when an edge was added.
  bool link(Node* pred, Node* succ, std::uint64_t stamp) SIGRT_REQUIRES(lock_);
  /// Pops an edge record, refilling the free list with a chunk when empty.
  Edge* take_edge() SIGRT_REQUIRES(lock_);

  /// Takes the retired list and drops each node's region pins; returns the
  /// list, whose references the caller's Drained releases after unlocking.
  [[nodiscard]] Node* drain() SIGRT_REQUIRES(lock_);
  /// Drops every region pin still naming the completed `node` and returns
  /// its edge records to the free list.
  void drop_pins(Node& node) SIGRT_REQUIRES(lock_);

  /// Drops `n` region pins of `node`; the last pin releases the shared
  /// registration reference.  Caller holds the tracker's lock.
  static void unpin(Node* node, std::uint32_t n) noexcept {
    assert(node->pin_count_ >= n && "more pins dropped than parked");
    node->pin_count_ -= n;
    if (node->pin_count_ == 0) node->ref_release();
  }

  mutable support::SpinLock lock_;
  /// The ordered map: regions ordered by lo, pairwise disjoint.
  std::vector<Region> regions_ SIGRT_GUARDED_BY(lock_);
  /// Regions left vacant by a drain, not yet reused or swept.
  std::size_t vacant_ SIGRT_GUARDED_BY(lock_) = 0;
  /// Reader lists of erased regions, capacity kept for the next insert.
  std::vector<std::vector<Node*>> spare_ SIGRT_GUARDED_BY(lock_);
  /// Edge records not on any dependents list.
  Edge* free_edges_ SIGRT_GUARDED_BY(lock_) = nullptr;
  /// Every chunk of edge records carved so far; freed only with the tracker.
  std::vector<std::unique_ptr<Edge[]>> edge_chunks_ SIGRT_GUARDED_BY(lock_);

  /// Registration stamp source.  Starts at 1 so a freshly reset node's
  /// visit_stamp_ of 0 never matches a live stamp.
  std::uint64_t stamp_ SIGRT_GUARDED_BY(lock_) = 1;
  std::uint64_t registered_nodes_ SIGRT_GUARDED_BY(lock_) = 0;
  std::uint64_t edges_ SIGRT_GUARDED_BY(lock_) = 0;

  /// Completed nodes not yet drained, newest first: complete() pushes with
  /// one release CAS, a drain takes the whole list with one acquire
  /// exchange.  Each node on it holds one retained reference.
  alignas(64) std::atomic<Node*> retired_{nullptr};
};

}  // namespace sigrt::dep
