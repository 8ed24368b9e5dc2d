#include "dep/block_tracker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sigrt::dep {

BlockTracker::BlockTracker(unsigned stripes)
    : stripe_count_(stripes == 0 ? kMaxStripes : stripes),
      stripe_bits_(static_cast<unsigned>(std::countr_zero(stripe_count_))),
      all_stripes_mask_(stripe_count_ >= 64
                            ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << stripe_count_) - 1) {
  assert(stripe_count_ >= 1 && stripe_count_ <= kMaxStripes &&
         std::has_single_bit(stripe_count_) &&
         "stripe count must be a power of two in [1, kMaxStripes]");
}

std::uint64_t BlockTracker::stripe_mask(std::uint64_t lo,
                                        std::uint64_t hi) const noexcept {
  const std::uint64_t first = lo >> kGranuleShift;
  const std::uint64_t last = (hi - 1) >> kGranuleShift;
  if (last - first + 1 >= stripe_count_) return all_stripes_mask_;
  std::uint64_t mask = 0;
  for (std::uint64_t g = first; g <= last; ++g) {
    mask |= std::uint64_t{1} << stripe_of(g);
  }
  return mask;
}

bool BlockTracker::owns(unsigned s, std::uint64_t lo,
                        std::uint64_t hi) const noexcept {
  const std::uint64_t m = stripe_count_ - 1;
  const std::uint64_t last = (hi - 1) >> kGranuleShift;
  // Granules g..end lie in one aligned run, where they take consecutive
  // stripes (mod stripe_count_) from stripe_of(g) on.  The second piece is
  // either a whole run or the range's end, so this loops at most twice.
  for (std::uint64_t g = lo >> kGranuleShift;;) {
    const std::uint64_t end = std::min(last, g | m);
    if (((std::uint64_t{s} - stripe_of(g)) & m) <= end - g) return true;
    if (end == last) return false;
    g = end + 1;
  }
}

void BlockTracker::lock_stripes(std::uint64_t mask) noexcept {
  // Ascending stripe order — the global lock order that keeps concurrent
  // multi-stripe registrations deadlock-free.
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    stripes_[static_cast<unsigned>(std::countr_zero(m))].lock.lock();
  }
}

std::size_t BlockTracker::first_after(const Stripe& st, std::uint64_t addr) {
  const auto it = std::partition_point(
      st.regions.begin(), st.regions.end(),
      [addr](const Region& r) { return r.hi <= addr; });
  return static_cast<std::size_t>(it - st.regions.begin());
}

BlockTracker::Region& BlockTracker::insert(Stripe& st, std::size_t i,
                                           std::uint64_t lo, std::uint64_t hi) {
  std::vector<Node*> readers;
  if (!st.spare.empty()) {
    readers.swap(st.spare.back());
    st.spare.pop_back();
  }
  // Moving regions up moves their reader lists' buffers; nothing is freed.
  return *st.regions.insert(st.regions.begin() + static_cast<std::ptrdiff_t>(i),
                            Region{lo, hi, nullptr, std::move(readers)});
}

void BlockTracker::erase(Stripe& st, std::size_t i) {
  Region& r = st.regions[i];
  if (r.readers.capacity() != 0) {
    r.readers.clear();
    st.spare.push_back(std::move(r.readers));
  }
  st.regions.erase(st.regions.begin() + static_cast<std::ptrdiff_t>(i));
}

void BlockTracker::split(Stripe& st, std::size_t i, std::uint64_t at,
                         Pins& pins) {
  const std::uint64_t hi = st.regions[i].hi;
  st.regions[i].hi = at;
  Region& copy = insert(st, i + 1, at, hi);
  const Region& orig = st.regions[i];  // after insert: it may reallocate
  copy.writer = orig.writer;
  copy.readers = orig.readers;
  if (copy.writer != nullptr) pins.add(copy.writer);
  for (Node* r : copy.readers) pins.add(r);
}

bool BlockTracker::merge_into_prev(Stripe& st, std::size_t i, Pins& pins) {
  Region& a = st.regions[i - 1];
  const Region& b = st.regions[i];
  if (a.hi != b.lo || is_vacant(b) || a.writer != b.writer ||
      a.readers != b.readers) {
    return false;
  }
  a.hi = b.hi;
  if (b.writer != nullptr) pins.drop(b.writer);
  for (Node* r : b.readers) pins.drop(r);
  erase(st, i);
  return true;
}

void BlockTracker::sweep(Stripe& st) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < st.regions.size(); ++i) {
    Region& r = st.regions[i];
    if (is_vacant(r)) {
      if (r.readers.capacity() != 0) st.spare.push_back(std::move(r.readers));
      continue;
    }
    if (kept != i) st.regions[kept] = std::move(r);
    ++kept;
  }
  st.regions.erase(st.regions.begin() + static_cast<std::ptrdiff_t>(kept),
                   st.regions.end());
  st.vacant = 0;
}

bool BlockTracker::link(Node* pred, Node* succ, std::uint64_t stamp) {
  if (pred == nullptr || pred == succ) return false;
  if (pred->visit_stamp_.load(std::memory_order_relaxed) == stamp) {
    return false;  // already linked this pass
  }
  // Fast path: a predecessor observed done needs no edge.  The acquire
  // pairs with complete()'s release store, so the successor's registering
  // thread — and, through the scheduler's publication edges, the worker
  // that eventually runs it — sees the predecessor's side effects.
  if (pred->done_.load(std::memory_order_acquire)) return false;
  bool added = false;
  pred->dep_lock_.lock();
  if (!pred->done_.load(std::memory_order_relaxed)) {  // re-check under lock
    succ->ref_retain();  // the dependents entry owns one reference
    pred->dependents_.push_back(succ);
    added = true;
  }
  pred->dep_lock_.unlock();
  if (added) pred->visit_stamp_.store(stamp, std::memory_order_relaxed);
  return added;
}

std::size_t BlockTracker::record(unsigned s, std::uint64_t lo, std::uint64_t hi,
                                 Mode mode, std::uint64_t stamp, Pins& pins) {
  Stripe& st = stripes_[s];
  Node* const node = pins.self;
  std::size_t edges = 0;
  std::size_t i = first_after(st, lo);
  // A region straddling the clause's start splits there; one straddling
  // its end splits when the walk reaches it.
  if (i < st.regions.size() && st.regions[i].lo < lo) {
    if (is_vacant(st.regions[i])) {
      st.regions[i].lo = lo;  // the part cut off held no history
    } else {
      split(st, i++, lo, pins);
    }
  }
  for (std::uint64_t cur = lo; cur < hi;) {
    const bool gap = i == st.regions.size() || st.regions[i].lo > cur;
    if (gap || is_vacant(st.regions[i])) {
      // No history here: the node parks in a fresh region, or takes over
      // a vacant one trimmed to the clause.
      Region* r = nullptr;
      if (gap) {
        const std::uint64_t end =
            i == st.regions.size() ? hi : std::min(hi, st.regions[i].lo);
        r = &insert(st, i, cur, end);
      } else {
        r = &st.regions[i];
        if (st.regions[i].hi > hi) st.regions[i].hi = hi;
        --st.vacant;
      }
      if (writes(mode)) {
        r->writer = node;
      } else {
        r->readers.push_back(node);
      }
      ++pins.parks;
    } else {
      if (st.regions[i].hi > hi) split(st, i, hi, pins);
      Region& r = st.regions[i];
      // Edges come only from a region holding a byte of this stripe's own
      // granules; the other bytes' stripes derive theirs.
      const bool derive =
          (r.writer != nullptr || (writes(mode) && !r.readers.empty())) &&
          owns(s, r.lo, r.hi);
      // RAW (a read) or WAW (a write) on the last writer.
      if (derive && link(r.writer, node, stamp)) ++edges;
      if (writes(mode)) {
        // WAR: link each reader, then drop its pin.  A reader pin parked by
        // an earlier clause of this same registration only adjusts parks.
        for (Node* reader : r.readers) {
          if (derive && link(reader, node, stamp)) ++edges;
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
    cur = st.regions[i].hi;
    if (i == 0 || !merge_into_prev(st, i, pins)) ++i;
  }
  // The clause's last region may now equal the region after it.
  if (i > 0 && i < st.regions.size()) merge_into_prev(st, i, pins);
  return edges;
}

std::size_t BlockTracker::register_node(Node* node,
                                        std::span<const Access> accesses) {
  assert(node->ranges_.empty() && "a node registers once per life");
  // Stamps are process-unique (never reused, never 0), so concurrent
  // registrations stamping the same predecessor can at worst miss a
  // de-duplication — a harmless duplicate edge whose gate arithmetic still
  // balances — never alias each other's stamps.
  const std::uint64_t stamp = stamp_.fetch_add(1, std::memory_order_relaxed);
  registered_nodes_.fetch_add(1, std::memory_order_relaxed);

  // Pass 1 (no locks): the clause ranges, the footprint's stripe set and
  // the last clause recorded in each of those stripes.
  std::array<std::uint32_t, kMaxStripes> last_clause{};
  std::uint64_t mask = 0;
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) continue;
    const auto lo =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(a.ptr));
    const std::uint64_t hi = lo + a.bytes;
    const std::uint64_t stripes = stripe_mask(lo, hi);
    for (std::uint64_t m = stripes; m != 0; m &= m - 1) {
      last_clause[static_cast<unsigned>(std::countr_zero(m))] =
          static_cast<std::uint32_t>(node->ranges_.size());
    }
    node->ranges_.push_back({lo, hi, stripes});
    mask |= stripes;
  }
  if (mask == 0) return 0;

  // A registration that takes a stripe this one released early (below) may
  // split or displace this node's pins before its last clause is done; a
  // surplus hold on the pin count (and the shared reference it stands for)
  // keeps those early updates from reaching zero.
  constexpr std::uint32_t kPinHold = 1u << 30;
  node->ref_retain();
  node->pin_count_.fetch_add(kPinHold, std::memory_order_relaxed);

  // Pass 2: take every involved stripe, in ascending order, before
  // touching any, so conflicting registrations serialize in one consistent
  // order across all shared stripes (pairwise edges can then never form a
  // cycle).  Once all are held, a stripe is released right after the last
  // clause recorded there: no lock is taken after one is dropped, so that
  // order stands, and completions need not wait for the whole footprint.
  lock_stripes(mask);

  Pins pins{node};
  std::size_t predecessors = 0;
  std::uint32_t clause = 0;
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) continue;
    const Node::Range& range = node->ranges_[clause];
    for (std::uint64_t m = range.stripes; m != 0; m &= m - 1) {
      const auto s = static_cast<unsigned>(std::countr_zero(m));
      predecessors += record(s, range.lo, range.hi, a.mode, stamp, pins);
      if (last_clause[s] == clause) stripes_[s].lock.unlock();
    }
    ++clause;
  }
  // Trade the hold for the pins actually parked.
  assert(pins.parks > 0 && pins.parks < kPinHold);
  unpin(node, kPinHold - static_cast<std::uint32_t>(pins.parks));

  if (predecessors != 0) {
    edges_.fetch_add(predecessors, std::memory_order_relaxed);
  }
  return predecessors;
}

void BlockTracker::complete(Node& node, std::vector<Node*>& out) {
  // Phase 1 — publish: set done_ and harvest the dependents, all under the
  // node's dep_lock_ so the last racing link() either lands before the
  // harvest (and is collected here) or observes done_ (and adds no edge).
  // No stripe lock is held, keeping the stripe→node lock order one-way.
  node.dep_lock_.lock();
  node.done_.store(true, std::memory_order_release);
  // The dependents' references transfer to the caller; the vector keeps its
  // capacity for the node's next life in the task pool.
  out.insert(out.end(), node.dependents_.begin(), node.dependents_.end());
  node.dependents_.clear();
  node.dep_lock_.unlock();

  // Phase 2 — unpin: drop every region pin still naming this node, one
  // stripe at a time, so the tracker holds no pointer to it afterwards
  // (pooled tasks recycle promptly; plain test nodes may be destroyed).
  // The node's regions lie inside its clause ranges — splits only cut
  // them finer — and a displaced pin simply is not found.  A registration
  // that meanwhile finds a still-parked pin sees done_ and links nothing.
  std::uint64_t mask = 0;
  for (const Node::Range& range : node.ranges_) mask |= range.stripes;
  Pins pins{&node};
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(m));
    Stripe& st = stripes_[s];
    st.lock.lock();
    for (const Node::Range& range : node.ranges_) {
      if ((range.stripes >> s & 1) == 0) continue;
      std::size_t i = first_after(st, range.lo);
      bool changed = false;
      while (i < st.regions.size() && st.regions[i].lo < range.hi) {
        Region& r = st.regions[i];
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
          ++st.vacant;
          changed = false;
          ++i;
        } else if (!changed || i == 0 || !merge_into_prev(st, i, pins)) {
          ++i;
        }
      }
      // The last region touched may now equal the region after it.
      if (changed && i < st.regions.size()) merge_into_prev(st, i, pins);
    }
    // Vacant regions are erased in bulk once they outnumber the live ones,
    // so the map stays within twice its live size (plus kSweepAt).
    if (st.vacant >= kSweepAt && 2 * st.vacant > st.regions.size()) sweep(st);
    st.lock.unlock();
  }
  node.ranges_.clear();
  // The node's own pins drop in one RMW.  Until then its count reads
  // high, never low, so a racing displacement cannot release it early.
  if (pins.parks < 0) unpin(&node, static_cast<std::uint32_t>(-pins.parks));
}

void BlockTracker::reset() {
  // Precondition: no registered node is still pending, so every pin was
  // already dropped by complete() — the regions reference nothing and are
  // simply forgotten.  Never-completed nodes (test-owned) lose their no-op
  // pins without being touched.
  for (Stripe& st : stripes_) {
    st.lock.lock();
    while (!st.regions.empty()) erase(st, st.regions.size() - 1);
    st.vacant = 0;
    st.lock.unlock();
  }
}

TrackerStats BlockTracker::stats() const {
  TrackerStats s;
  s.registered_nodes = registered_nodes_.load(std::memory_order_relaxed);
  s.edges = edges_.load(std::memory_order_relaxed);
  for (const Stripe& st : stripes_) {
    st.lock.lock();
    s.live_regions += st.regions.size() - st.vacant;
    st.lock.unlock();
  }
  return s;
}

}  // namespace sigrt::dep
