// Counting global allocator for the allocation-gated microbenches
// (micro_spawn, micro_deps, micro_nested, micro_kernels).
//
// Including this header REPLACES the program's global operator new/delete,
// so include it from exactly one translation unit per executable (each
// bench driver is a single TU).  Every heap allocation in the process —
// runtime, library internals, everything — then bumps one relaxed counter;
// a bench reads alloc_counter::count() before and after a measured round.
// The nothrow forms need no replacement: the standard library's versions
// forward to the ones below, so they are counted too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline std::atomic<std::uint64_t> g_allocs{0};

/// Heap allocations made by the process so far.
inline std::uint64_t count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

inline void* counted(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

inline void* counted_aligned(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace alloc_counter

void* operator new(std::size_t size) { return alloc_counter::counted(size); }
void* operator new[](std::size_t size) { return alloc_counter::counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_counter::counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_counter::counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
