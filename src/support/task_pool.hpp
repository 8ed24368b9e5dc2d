// Slab pool with per-thread freelists and an MPSC remote-free return chain.
//
// The task lifecycle is strongly asymmetric: tasks are allocated by one
// thread (the master, or the serve dispatcher) and freed by whichever
// worker executes them.  A classic global free list would serialize every
// spawn/complete pair on one cache line; per-thread caches alone would
// bleed memory from the allocating thread to the executing ones.  This
// pool does neither:
//
//   * Each allocating thread leases a Shard holding a private LIFO
//     freelist and the slabs it carved.  Allocation is a pointer pop —
//     no atomics, no lock.
//   * An object freed by its owner thread is pushed back onto that private
//     list.  An object freed by any other thread is pushed onto the owner
//     shard's lock-free MPSC `remote_free` Treiber chain (one CAS); the
//     owner splices the whole chain back into its private list the next
//     time its freelist runs dry.  Net effect: a task freed by the
//     executing worker is recycled by its spawning thread without a global
//     lock, and the slabs never migrate.
//   * Shards are leased, not owned: when a thread exits, its shard (with
//     freelist and slabs intact) returns to a registry and is adopted by
//     the next new allocating thread, so repeated Runtime construction in
//     one process keeps reusing warm slabs.
//
// Objects are constructed once per slot and *reset*, not destroyed, on
// free (`T::reset_for_reuse()`, called on the freeing thread so captured
// resources release promptly).  Internal buffers such as a task's
// clause-range vector therefore keep their capacity across reuses — the
// steady state allocates nothing.  Each free bumps the slot's generation
// counter, giving use-after-recycle bugs a cheap, testable signature.
//
// T must derive from PoolSlot<T> and provide `void reset_for_reuse()
// noexcept`.  The pool singleton is intentionally leaked (thread-local
// caches may outlive static destruction).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sigrt::support {

template <class T>
class SlabPool;

/// Intrusive pool header every pooled type embeds (via inheritance).  The
/// generation counter is bumped on every free; a task body observing a
/// generation different from the one captured at spawn has outlived its
/// slot — the signature task_pool_test's stress asserts never appears.
template <class T>
class PoolSlot {
 public:
  [[nodiscard]] std::uint32_t pool_generation() const noexcept {
    return pool_generation_.load(std::memory_order_acquire);
  }

 private:
  friend class SlabPool<T>;
  T* pool_next_ = nullptr;    ///< freelist / remote-chain link
  void* pool_shard_ = nullptr;  ///< owning SlabPool shard
  std::atomic<std::uint32_t> pool_generation_{0};
};

template <class T>
class SlabPool {
 public:
  /// Objects per slab: large enough to amortize the slab allocation, small
  /// enough that short-lived programs don't overcommit.
  static constexpr std::size_t kSlabObjects = 64;

  struct Stats {
    std::uint64_t allocated = 0;  ///< allocate() calls (reuse included)
    std::uint64_t freed = 0;      ///< recycle() completions
    std::uint64_t slabs = 0;      ///< slabs carved, never returned
    std::uint64_t shards = 0;     ///< shards ever created
    [[nodiscard]] std::uint64_t live() const noexcept {
      return allocated - freed;
    }
  };

  /// Leaked singleton: thread-local shard leases unwind after static
  /// destructors run, so the pool must never be torn down.
  [[nodiscard]] static SlabPool& instance() {
    static SlabPool* pool = new SlabPool;
    return *pool;
  }

  /// Grabs a slot from the calling thread's shard: private freelist, then
  /// the remote-free chain, then a fresh slab.  The returned object is in
  /// its reset state; the caller re-initializes lifecycle fields.
  [[nodiscard]] SIGRT_HOT_PATH T* allocate() {
    Shard& shard = local_shard();
    T* obj = shard.free_list;
    if (obj == nullptr) {
      drain_remote(shard);
      obj = shard.free_list;
      if (obj == nullptr) {
        grow(shard);
        obj = shard.free_list;
      }
    }
    shard.free_list = obj->PoolSlot<T>::pool_next_;
    obj->PoolSlot<T>::pool_next_ = nullptr;
    // Owner-only counter: plain load+store, no lock-prefixed RMW.
    shard.allocated.store(shard.allocated.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    return obj;
  }

  /// Returns a slot to its owning shard.  Called from any thread (this is
  /// the only cross-thread entry point); resets the object on the freeing
  /// thread, then hands the slot home — locally when the freeing thread
  /// owns the shard, otherwise through a thread-local outbound chain that
  /// is spliced onto the home shard's MPSC remote list every
  /// kOutboundFlush frees (one CAS per batch, not per task).
  SIGRT_HOT_PATH void recycle(T* obj) noexcept {
    obj->reset_for_reuse();
    // Plain load+store, not an RMW: the freeing thread exclusively owns the
    // slot here (refcount already zero); the release store publishes the
    // bump to stale-read generation checks.
    obj->PoolSlot<T>::pool_generation_.store(
        obj->PoolSlot<T>::pool_generation_.load(std::memory_order_relaxed) + 1,
        std::memory_order_release);
    auto* home = static_cast<Shard*>(obj->PoolSlot<T>::pool_shard_);
    ShardLease& lease = tls_lease();
    if (home == lease.shard) {
      obj->PoolSlot<T>::pool_next_ = home->free_list;
      home->free_list = obj;
      // Owner-only counter: plain load+store, no lock-prefixed RMW.
      home->freed_local.store(
          home->freed_local.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return;
    }
    // A worker frees almost exclusively to one home (its spawner), so a
    // single buffered chain suffices; a change of home flushes the old one.
    if (lease.out_home != home) flush_outbound(lease);
    obj->PoolSlot<T>::pool_next_ = lease.out_head;
    lease.out_head = obj;
    if (lease.out_tail == nullptr) lease.out_tail = obj;
    lease.out_home = home;
    if (++lease.out_count >= kOutboundFlush) flush_outbound(lease);
  }

  /// Aggregate over every shard (including orphaned ones).  Counters are
  /// relaxed: exact once the workload has quiesced, approximate while
  /// threads are running.
  [[nodiscard]] Stats stats() const {
    Stats s;
    MutexLock lock(registry_mutex_);
    s.shards = shards_.size();
    for (const auto& shard : shards_) {
      s.allocated += shard->allocated.load(std::memory_order_relaxed);
      s.freed += shard->freed_local.load(std::memory_order_relaxed) +
                 shard->freed_remote.load(std::memory_order_relaxed);
      s.slabs += shard->slab_count.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  struct Slab {
    alignas(alignof(T)) unsigned char storage[sizeof(T) * kSlabObjects];
  };

  struct alignas(64) Shard {
    // Owner-thread only --------------------------------------------------
    T* free_list = nullptr;
    std::vector<std::unique_ptr<Slab>> slabs;
    // Any thread ---------------------------------------------------------
    std::atomic<T*> remote_free{nullptr};
    // allocated/freed_local are owner-only (plain store/load); freed_remote
    // takes batched fetch_adds from outbound flushes.
    std::atomic<std::uint64_t> allocated{0};
    std::atomic<std::uint64_t> freed_local{0};
    std::atomic<std::uint64_t> freed_remote{0};
    std::atomic<std::uint64_t> slab_count{0};
    /// Guarded by the pool's registry_mutex_ (a cross-object guard TSA
    /// cannot express on an inner-struct member; every access site holds
    /// the registry lock).
    bool leased = false;
  };

  /// Remote frees buffered before one CAS splices them home.
  static constexpr unsigned kOutboundFlush = 32;

  /// Thread-exit hook: flushes any buffered remote frees, then returns the
  /// lease so the next new thread adopts the shard (its freelist and slabs
  /// stay warm).
  struct ShardLease {
    Shard* shard = nullptr;
    // Outbound remote-free chain (newest-first) destined for out_home.
    Shard* out_home = nullptr;
    T* out_head = nullptr;
    T* out_tail = nullptr;
    unsigned out_count = 0;
    ~ShardLease() {
      flush_outbound(*this);
      if (shard != nullptr) instance().return_shard(*shard);
    }
  };

  static ShardLease& tls_lease() {
    thread_local ShardLease lease;
    return lease;
  }

  /// Splices the lease's outbound chain onto its home shard's remote list:
  /// one release CAS and one batched freed_remote add for the whole chain.
  static void flush_outbound(ShardLease& lease) noexcept {
    if (lease.out_head == nullptr) {
      lease.out_home = nullptr;
      return;
    }
    Shard& home = *lease.out_home;
    T* head = home.remote_free.load(std::memory_order_relaxed);
    do {
      lease.out_tail->PoolSlot<T>::pool_next_ = head;
    } while (!home.remote_free.compare_exchange_weak(
        head, lease.out_head, std::memory_order_release,
        std::memory_order_relaxed));
    home.freed_remote.fetch_add(lease.out_count, std::memory_order_relaxed);
    lease.out_head = nullptr;
    lease.out_tail = nullptr;
    lease.out_count = 0;
    lease.out_home = nullptr;
  }

  Shard& local_shard() {
    ShardLease& lease = tls_lease();
    if (lease.shard == nullptr) lease.shard = &lease_shard();
    return *lease.shard;
  }

  Shard& lease_shard() {
    MutexLock lock(registry_mutex_);
    for (auto& shard : shards_) {
      if (!shard->leased) {
        shard->leased = true;
        return *shard;
      }
    }
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->leased = true;
    return *shards_.back();
  }

  void return_shard(Shard& shard) {
    MutexLock lock(registry_mutex_);
    shard.leased = false;
  }

  /// Splices the remote-free chain into the private freelist.  Order is
  /// irrelevant (a freelist, not a queue); the acquire exchange pairs with
  /// the release CAS in recycle() so the reset state is visible.
  void drain_remote(Shard& shard) {
    T* chain = shard.remote_free.exchange(nullptr, std::memory_order_acquire);
    while (chain != nullptr) {
      T* next = chain->PoolSlot<T>::pool_next_;
      chain->PoolSlot<T>::pool_next_ = shard.free_list;
      shard.free_list = chain;
      chain = next;
    }
  }

  void grow(Shard& shard) {
    auto slab = std::make_unique<Slab>();
    unsigned char* base = slab->storage;
    for (std::size_t i = kSlabObjects; i-- > 0;) {
      T* obj = ::new (base + i * sizeof(T)) T();
      obj->PoolSlot<T>::pool_shard_ = &shard;
      obj->PoolSlot<T>::pool_next_ = shard.free_list;
      shard.free_list = obj;
    }
    shard.slabs.push_back(std::move(slab));
    shard.slab_count.fetch_add(1, std::memory_order_relaxed);
  }

  mutable Mutex registry_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_ SIGRT_GUARDED_BY(registry_mutex_);
};

}  // namespace sigrt::support
