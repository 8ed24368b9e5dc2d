// Pragma-surface emulation layer.
//
// The paper lowers `#pragma omp task ...` / `#pragma omp taskwait ...`
// through the SCOOP source-to-source compiler [26] into runtime calls
// (§2, §3.1).  Without shipping a compiler, this header provides the same
// clause-for-clause surface as a fluent API, so ported code reads like the
// annotated original:
//
//   // #pragma omp task label(sobel) in(img) out(res_row) ...
//   //     significant((i%9+1)/10.0) approxfun(sbl_task_appr)
//   omp_task(rt, [&] { sbl_task(res, img, i); })
//       .label("sobel")
//       .in(img.data(), img.size())
//       .out(res.row(i), W)
//       .significant((i % 9 + 1) / 10.0)
//       .approxfun([&] { sbl_task_appr(res, img, i); });
//
//   // #pragma omp taskwait label(sobel) ratio(0.35)
//   omp_taskwait(rt).label("sobel").ratio(0.35);
//
// Clause semantics match the paper exactly; only the spelling differs,
// because C++ cannot add pragmas without a compiler pass.  The statement
// "executes" at the end of the full expression (destructor), like a pragma
// applying to the following line.
//
// Nesting works exactly as in OpenMP: a task body may itself issue
// omp_task (the child parents to the enclosing task) and omp_taskwait
// (which, inside a task, barriers on that task's children via the
// runtime's helping loop — the worker never blocks).  See
// examples/fib_recursive.cpp for the divide-and-conquer idiom.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/runtime.hpp"

namespace sigrt {

/// Builder behind omp_task(); spawns on destruction.
class PragmaTask {
 public:
  template <class F>
  PragmaTask(Runtime& rt, F&& body) : rt_(rt) {
    options_.accurate = std::forward<F>(body);
  }

  PragmaTask(const PragmaTask&) = delete;
  PragmaTask& operator=(const PragmaTask&) = delete;

  /// significant(expr) — task significance in [0,1].
  PragmaTask& significant(double s) {
    options_.significance = s;
    return *this;
  }

  /// approxfun(f) — the approximate task body.  Captures within the 64-byte
  /// InlineFn small-buffer limit spawn without heap allocation.
  template <class F>
  PragmaTask& approxfun(F&& fn) {
    options_.approximate = std::forward<F>(fn);
    return *this;
  }

  /// label(name) — task-group membership; the group is created on first use
  /// (tpc_init_group in the paper's runtime API, §3.1) with ratio 1.0 until
  /// a taskwait retargets it.
  PragmaTask& label(const std::string& name) {
    label_ = name;
    return *this;
  }

  /// in(...) / out(...) / inout(...) — data-flow clauses.
  template <typename T>
  PragmaTask& in(const T* p, std::size_t count = 1) {
    options_.accesses.push_back(dep::in(p, count));
    return *this;
  }
  template <typename T>
  PragmaTask& out(T* p, std::size_t count = 1) {
    options_.accesses.push_back(dep::out(p, count));
    return *this;
  }
  template <typename T>
  PragmaTask& inout(T* p, std::size_t count = 1) {
    options_.accesses.push_back(dep::inout(p, count));
    return *this;
  }

  ~PragmaTask() noexcept(false) {
    if (label_) {
      options_.group = rt_.ensure_group(*label_);
    }
    rt_.spawn(std::move(options_));
  }

 private:
  Runtime& rt_;
  TaskOptions options_;
  std::optional<std::string> label_;
};

/// Builder behind omp_taskwait(); waits on destruction.
class PragmaTaskwait {
 public:
  explicit PragmaTaskwait(Runtime& rt) : rt_(rt) {}

  PragmaTaskwait(const PragmaTaskwait&) = delete;
  PragmaTaskwait& operator=(const PragmaTaskwait&) = delete;

  /// label(name) — barrier over one task group instead of all tasks.
  PragmaTaskwait& label(const std::string& name) {
    label_ = name;
    return *this;
  }

  /// ratio(r) — minimum fraction of the group's tasks executed accurately.
  PragmaTaskwait& ratio(double r) {
    ratio_ = r;
    return *this;
  }

  /// on(ptr, bytes) — wait only for tasks affecting the given range.
  PragmaTaskwait& on(const void* ptr, std::size_t bytes) {
    on_ptr_ = ptr;
    on_bytes_ = bytes;
    return *this;
  }

  // Clause-application order is part of the contract: ratio() lands BEFORE
  // the wait in every branch, because the wait's GTB flush is what
  // classifies a GTB-buffered barrier window — applied after, the window
  // would be classified at the stale ratio.  tests/pragma_test.cpp pins
  // this ordering.
  ~PragmaTaskwait() noexcept(false) {
    if (label_) {
      const GroupId g = rt_.ensure_group(*label_);
      if (ratio_) rt_.set_ratio(g, *ratio_);
      rt_.wait_group(g);
    } else if (on_ptr_ != nullptr) {
      // An unlabeled ratio() targets the default group (as in the plain
      // taskwait branch below) — previously the clause was silently
      // dropped when combined with on().
      if (ratio_) rt_.set_ratio(kDefaultGroup, *ratio_);
      rt_.wait_on(on_ptr_, on_bytes_);
    } else {
      if (ratio_) rt_.set_ratio(kDefaultGroup, *ratio_);
      rt_.wait_all();
    }
  }

 private:
  Runtime& rt_;
  std::optional<std::string> label_;
  std::optional<double> ratio_;
  const void* on_ptr_ = nullptr;
  std::size_t on_bytes_ = 0;
};

/// tpc_init_group(): the call the paper's compiler inserts on the first use
/// of a task group (§3.1), hoisting the taskwait's ratio() clause so that
/// classification policies know the ratio *before* tasks start flowing.
/// Programs using bounded GTB (whose windows flush mid-loop) must declare
/// the ratio up front this way; with GTB(MaxBuffer) the barrier's ratio()
/// clause alone suffices because classification happens at the flush.
inline GroupId tpc_init_group(Runtime& rt, const std::string& name, double ratio) {
  return rt.create_group(name, ratio);
}

/// #pragma omp task — the returned builder takes the clause chain.
template <class F>
[[nodiscard]] PragmaTask omp_task(Runtime& rt, F&& body) {
  return PragmaTask(rt, std::forward<F>(body));
}

/// #pragma omp taskwait — the returned builder takes the clause chain.
[[nodiscard]] inline PragmaTaskwait omp_taskwait(Runtime& rt) {
  return PragmaTaskwait(rt);
}

}  // namespace sigrt
