// Clang Thread Safety Analysis macros (no-ops elsewhere).
//
// These wrap the capability attributes documented in
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html so the lock-order
// and guarded-state tables in docs/architecture.md are compiler-checked
// under `-Wthread-safety -Werror` (the clang-thread-safety CI job) while
// GCC builds see plain code.  Conventions:
//
//   * Every lock type is a SIGRT_CAPABILITY; every field a lock protects
//     carries SIGRT_GUARDED_BY(lock) instead of (or in addition to) a
//     `///< lock` comment.
//   * Private helpers that assume a lock is already held take
//     SIGRT_REQUIRES(lock) — the `_locked` suffix convention, now enforced.
//   * Static lock order is declared once, on the lock member, with
//     SIGRT_ACQUIRED_BEFORE / SIGRT_ACQUIRED_AFTER.
//   * Lock-free publish protocols the analysis cannot express (Treiber
//     stacks, single-writer counters) are opted out per-function with
//     SIGRT_NO_THREAD_SAFETY_ANALYSIS plus a one-line comment naming the
//     protocol that actually protects the access.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SIGRT_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SIGRT_THREAD_ANNOTATION_
#define SIGRT_THREAD_ANNOTATION_(x)
#endif

/// Marks a type as a lockable capability, e.g.
/// `class SIGRT_CAPABILITY("mutex") Mutex { ... };`.
#define SIGRT_CAPABILITY(x) SIGRT_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII guard whose constructor acquires and destructor releases.
#define SIGRT_SCOPED_CAPABILITY SIGRT_THREAD_ANNOTATION_(scoped_lockable)

/// Field is readable/writable only with the named capability held.
#define SIGRT_GUARDED_BY(x) SIGRT_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field whose *pointee* is guarded (the pointer itself is not).
#define SIGRT_PT_GUARDED_BY(x) SIGRT_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Caller must hold the capability (exclusively) to call this function.
#define SIGRT_REQUIRES(...) \
  SIGRT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Caller must hold the capability at least shared to call this function.
#define SIGRT_REQUIRES_SHARED(...) \
  SIGRT_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (and the caller must not hold it).
#define SIGRT_ACQUIRE(...) \
  SIGRT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function acquires the capability in shared mode.
#define SIGRT_ACQUIRE_SHARED(...) \
  SIGRT_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive or shared).
#define SIGRT_RELEASE(...) \
  SIGRT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function releases a shared hold of the capability.
#define SIGRT_RELEASE_SHARED(...) \
  SIGRT_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define SIGRT_TRY_ACQUIRE(...) \
  SIGRT_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock-by-reentry guard).
#define SIGRT_EXCLUDES(...) SIGRT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Static lock-order edges, declared on the lock member itself.
#define SIGRT_ACQUIRED_BEFORE(...) \
  SIGRT_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define SIGRT_ACQUIRED_AFTER(...) \
  SIGRT_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define SIGRT_RETURN_CAPABILITY(x) SIGRT_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch for protocols the analysis cannot model.  Every use MUST
/// carry a one-line comment naming the protocol that protects the access
/// (sigrt-lint's manifest ties those names back to docs/architecture.md).
#define SIGRT_NO_THREAD_SAFETY_ANALYSIS \
  SIGRT_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Marks a function as part of the zero-allocation steady state.  The
/// attribute is advisory to the compiler; the *contract* is enforced
/// textually by tools/sigrt-lint (no std::function, no new/make_unique/
/// make_shared/malloc inside the body) and dynamically by the bench-smoke
/// allocation gates.
#if defined(__GNUC__) || defined(__clang__)
#define SIGRT_HOT_PATH __attribute__((hot))
#else
#define SIGRT_HOT_PATH
#endif
