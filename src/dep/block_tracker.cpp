#include "dep/block_tracker.hpp"

#include <algorithm>

namespace sigrt::dep {

std::size_t BlockTracker::first_after(std::uint64_t addr) const {
  const auto it = std::partition_point(
      regions_.begin(), regions_.end(),
      [addr](const Region& r) { return r.hi <= addr; });
  return static_cast<std::size_t>(it - regions_.begin());
}

BlockTracker::Region& BlockTracker::insert(std::size_t i, std::uint64_t lo,
                                           std::uint64_t hi) {
  std::vector<Node*> readers;
  if (!spare_.empty()) {
    readers.swap(spare_.back());
    spare_.pop_back();
  }
  // Moving regions up moves their reader lists' buffers; nothing is freed.
  return *regions_.insert(regions_.begin() + static_cast<std::ptrdiff_t>(i),
                          Region{lo, hi, nullptr, std::move(readers)});
}

void BlockTracker::erase(std::size_t i) {
  Region& r = regions_[i];
  if (r.readers.capacity() != 0) {
    r.readers.clear();
    spare_.push_back(std::move(r.readers));
  }
  regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(i));
}

void BlockTracker::split(std::size_t i, std::uint64_t at, Pins& pins) {
  const std::uint64_t hi = regions_[i].hi;
  regions_[i].hi = at;
  Region& copy = insert(i + 1, at, hi);
  const Region& orig = regions_[i];  // after insert: it may reallocate
  copy.writer = orig.writer;
  copy.readers = orig.readers;
  if (copy.writer != nullptr) pins.add(copy.writer);
  for (Node* r : copy.readers) pins.add(r);
}

bool BlockTracker::merge_into_prev(std::size_t i, Pins& pins) {
  Region& a = regions_[i - 1];
  const Region& b = regions_[i];
  if (a.hi != b.lo || is_vacant(b) || a.writer != b.writer ||
      a.readers != b.readers) {
    return false;
  }
  a.hi = b.hi;
  if (b.writer != nullptr) pins.drop(b.writer);
  for (Node* r : b.readers) pins.drop(r);
  erase(i);
  return true;
}

void BlockTracker::sweep() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    if (is_vacant(r)) {
      if (r.readers.capacity() != 0) spare_.push_back(std::move(r.readers));
      continue;
    }
    if (kept != i) regions_[kept] = std::move(r);
    ++kept;
  }
  regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(kept),
                 regions_.end());
  vacant_ = 0;
}

bool BlockTracker::link(Node* pred, Node* succ, std::uint64_t stamp) {
  if (pred == nullptr || pred == succ || pred->visit_stamp_ == stamp) {
    return false;  // no history, the node itself, or already linked
  }
  assert(!pred->ranges_.empty() && "a drained node is still parked");
  pred->visit_stamp_ = stamp;
  // Acquire: a closed list means the predecessor completed, and its side
  // effects are then visible here (the closing exchange releases them).
  Edge* head = pred->dependents_.load(std::memory_order_acquire);
  if (head == Node::closed()) return false;
  Edge* const e = take_edge();
  e->succ = succ;
  succ->ref_retain();  // the edge owns one reference
  e->next = head;
  // Only link() pushes, always under the lock, so the CAS can fail only
  // against the closing exchange: then no edge is made.
  if (!pred->dependents_.compare_exchange_strong(head, e,
                                                 std::memory_order_release,
                                                 std::memory_order_acquire)) {
    assert(head == Node::closed());
    succ->ref_release();  // never the last: the registering caller holds one
    e->next = free_edges_;
    free_edges_ = e;
    return false;
  }
  return true;
}

BlockTracker::Edge* BlockTracker::take_edge() {
  if (free_edges_ == nullptr) {
    auto chunk = std::make_unique<Edge[]>(kEdgeChunk);
    for (std::size_t i = 0; i < kEdgeChunk; ++i) {
      chunk[i].next = free_edges_;
      free_edges_ = &chunk[i];
    }
    edge_chunks_.push_back(std::move(chunk));
  }
  Edge* const e = free_edges_;
  free_edges_ = e->next;
  return e;
}

std::size_t BlockTracker::record(std::uint64_t lo, std::uint64_t hi, Mode mode,
                                 std::uint64_t stamp, Pins& pins) {
  Node* const node = pins.self;
  std::size_t edges = 0;
  std::size_t i = first_after(lo);
  // A region straddling the clause's start splits there; one straddling
  // its end splits when the walk reaches it.
  if (i < regions_.size() && regions_[i].lo < lo) {
    if (is_vacant(regions_[i])) {
      regions_[i].lo = lo;  // the part cut off held no history
    } else {
      split(i++, lo, pins);
    }
  }
  for (std::uint64_t cur = lo; cur < hi;) {
    const bool gap = i == regions_.size() || regions_[i].lo > cur;
    if (gap || is_vacant(regions_[i])) {
      // No history here: the node parks in a fresh region, or takes over
      // a vacant one trimmed to the clause.
      Region* r = nullptr;
      if (gap) {
        const std::uint64_t end =
            i == regions_.size() ? hi : std::min(hi, regions_[i].lo);
        r = &insert(i, cur, end);
      } else {
        r = &regions_[i];
        if (r->hi > hi) r->hi = hi;
        --vacant_;
      }
      if (writes(mode)) {
        r->writer = node;
      } else {
        r->readers.push_back(node);
      }
      ++pins.parks;
    } else {
      if (regions_[i].hi > hi) split(i, hi, pins);
      Region& r = regions_[i];
      // RAW (a read) or WAW (a write) on the last writer.
      if (link(r.writer, node, stamp)) ++edges;
      if (writes(mode)) {
        // WAR: link each reader, then drop its pin.  A reader pin parked by
        // an earlier clause of this same registration only adjusts parks.
        for (Node* reader : r.readers) {
          if (link(reader, node, stamp)) ++edges;
          pins.drop(reader);
        }
        r.readers.clear();
        // A later write clause of this same registration may find the node
        // already parked as this region's writer; that pin stands.
        if (r.writer != node) {
          if (r.writer != nullptr) pins.drop(r.writer);
          r.writer = node;
          ++pins.parks;
        }
      } else if (r.readers.empty() || r.readers.back() != node) {
        // Within one registration the node's own reader entries are always
        // last, so this skips a second read clause over the same bytes.
        r.readers.push_back(node);
        ++pins.parks;
      }
    }
    cur = regions_[i].hi;
    if (i == 0 || !merge_into_prev(i, pins)) ++i;
  }
  // The clause's last region may now equal the region after it.
  if (i > 0 && i < regions_.size()) merge_into_prev(i, pins);
  return edges;
}

std::size_t BlockTracker::register_node(Node* node,
                                        std::span<const Access> accesses) {
  assert(node->ranges_.empty() && "a node registers once per life");
  Drained drained;
  support::SpinLockGuard guard(lock_);
  drained.list = drain();
  ++registered_nodes_;
  const std::uint64_t stamp = stamp_++;
  Pins pins{node};
  std::size_t predecessors = 0;
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) continue;
    const auto lo =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(a.ptr));
    const std::uint64_t hi = lo + a.bytes;
    node->ranges_.push_back({lo, hi});
    predecessors += record(lo, hi, a.mode, stamp, pins);
  }
  if (node->ranges_.empty()) return 0;
  // Publish the node's pins, under the one shared reference they stand for.
  assert(pins.parks > 0);
  node->ref_retain();
  node->pin_count_ = static_cast<std::uint32_t>(pins.parks);
  edges_ += predecessors;
  return predecessors;
}

void BlockTracker::complete(Node& node, std::vector<Node*>& out) {
  // acq_rel: acquire pairs with link()'s release CAS, so every record on
  // the list is visible; release publishes this node's side effects to a
  // link() that then reads the closed mark.  The successors' references
  // transfer to the caller, oldest edge first.
  Edge* const edges =
      node.dependents_.exchange(Node::closed(), std::memory_order_acq_rel);
  const std::size_t first = out.size();
  for (Edge* e = edges; e != nullptr; e = e->next) out.push_back(e->succ);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  node.harvested_ = edges;
  // The retired list's reference keeps the node until a drain has dropped
  // its pins.  After the push another thread may drain and release it, so
  // this function touches the node no more.
  node.ref_retain();
  Node* head = retired_.load(std::memory_order_relaxed);
  do {
    node.retired_next_ = head;
  } while (!retired_.compare_exchange_weak(head, &node,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
}

Node* BlockTracker::drain() {
  if (retired_.load(std::memory_order_relaxed) == nullptr) return nullptr;
  // Acquire pairs with complete()'s release push: each node's harvested
  // edges, its side effects and its retired link are visible.
  Node* const list = retired_.exchange(nullptr, std::memory_order_acquire);
  for (Node* n = list; n != nullptr; n = n->retired_next_) drop_pins(*n);
  // Vacant regions are erased in bulk once they outnumber the live ones,
  // so the map stays within twice its live size (plus kSweepAt).
  if (vacant_ >= kSweepAt && 2 * vacant_ > regions_.size()) sweep();
  return list;
}

void BlockTracker::drop_pins(Node& node) {
  // The harvested records go back to the pool; complete() handed their
  // successors out already.
  while (Edge* const e = node.harvested_) {
    node.harvested_ = e->next;
    e->next = free_edges_;
    free_edges_ = e;
  }

  // Drop every region pin still naming this node, so the tracker holds no
  // pointer to it afterwards.  The node's regions lie inside its clause
  // ranges — splits only cut them finer — and a displaced pin simply is
  // not found.
  Pins pins{&node};
  for (const Node::Range& range : node.ranges_) {
    std::size_t i = first_after(range.lo);
    bool changed = false;
    while (i < regions_.size() && regions_[i].lo < range.hi) {
      Region& r = regions_[i];
      changed = false;
      if (r.writer == &node) {
        r.writer = nullptr;
        pins.drop(&node);
        changed = true;
      }
      // Parked at most once per region as a reader.
      const auto it = std::find(r.readers.begin(), r.readers.end(), &node);
      if (it != r.readers.end()) {
        *it = r.readers.back();
        r.readers.pop_back();
        pins.drop(&node);
        changed = true;
      }
      if (changed && is_vacant(r)) {
        // Left in place for the next clause over these bytes to take.
        ++vacant_;
        changed = false;
        ++i;
      } else if (!changed || i == 0 || !merge_into_prev(i, pins)) {
        ++i;
      }
    }
    // The last region touched may now equal the region after it.
    if (changed && i < regions_.size()) merge_into_prev(i, pins);
  }
  node.ranges_.clear();
  // The node's own pins drop in one step.  Never its last reference: the
  // node still holds its retired-list reference.
  if (pins.parks < 0) unpin(&node, static_cast<std::uint32_t>(-pins.parks));
}

void BlockTracker::reclaim() {
  if (retired_.load(std::memory_order_relaxed) == nullptr) return;
  Drained drained;
  support::SpinLockGuard guard(lock_);
  drained.list = drain();
}

void BlockTracker::reset() {
  // Precondition: no registered node is still pending.  Once the completed
  // nodes are drained the regions reference nothing and are simply
  // forgotten.  Never-completed nodes (test-owned) lose their no-op pins
  // without being touched.
  Drained drained;
  support::SpinLockGuard guard(lock_);
  drained.list = drain();
  while (!regions_.empty()) erase(regions_.size() - 1);
  vacant_ = 0;
}

TrackerStats BlockTracker::stats() {
  Drained drained;
  support::SpinLockGuard guard(lock_);
  drained.list = drain();
  TrackerStats s;
  s.registered_nodes = registered_nodes_;
  s.edges = edges_;
  s.live_regions = regions_.size() - vacant_;
  return s;
}

std::uint64_t BlockTracker::edges() const {
  support::SpinLockGuard guard(lock_);
  return edges_;
}

}  // namespace sigrt::dep
