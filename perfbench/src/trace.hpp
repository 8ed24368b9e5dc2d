// In-memory span tracer for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer of sigrt (a spawn, a task body, a barrier, a request on the wire).
// Every recording thread claims one of a fixed set of buffers that arm()
// allocates before timing starts, so recording a span allocates nothing: it
// is two clock reads and a store into the thread's buffer.  A full buffer
// drops further spans and counts them.
//
// Nesting on one thread is tracked with a thread-local "current span", which
// becomes the parent of spans begun inside it.  Spans of one program run or
// one request share a `unit` id; `key` names the task or request class
// inside the unit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pb::trace {

enum class Kind : std::uint8_t {
  Run,           ///< one program run: first spawn to barrier return
  Spawn,         ///< one Runtime::spawn call
  BodyAccurate,  ///< a task body or request handler, accurate variant
  BodyApprox,    ///< the approximate variant
  Barrier,       ///< top-level wait on the spawning thread
  Help,          ///< in-task wait_all (the helping barrier)
  Request,       ///< one request: send to response read
  Server,        ///< admission to completion, from the response's server_ns
};

[[nodiscard]] const char* name(Kind k) noexcept;

/// One recorded interval.  `id` is unique per span; `parent` is 0 for a root.
struct Span {
  std::int64_t t0;
  std::int64_t t1;  ///< 0 while the span is open
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t unit;
  std::uint32_t key;
  std::uint16_t thread;
  Kind kind;
};

/// Allocates `threads` buffers (at most 256) of `spans_per_thread` spans
/// each (untouched pages: memory is committed as spans are written) and
/// drops the spans of the previous arm().  Not concurrent with recording.
/// Span ids stay unique across up to 256 arms.
void arm(std::size_t threads, std::size_t spans_per_thread);

/// Spans recorded so far (any thread; approximate while threads record).
[[nodiscard]] std::uint64_t recorded() noexcept;
/// Spans dropped because a buffer was full or no buffer was left.
[[nodiscard]] std::uint64_t dropped() noexcept;

/// Opens a span on the calling thread and makes it the current parent;
/// returns its id, or 0 when no buffer slot was available.
std::uint64_t begin(Kind kind, std::uint32_t unit, std::uint32_t key) noexcept;
/// Closes the span `id` opened by begin() on this thread.
void end(std::uint64_t id) noexcept;

/// Records a closed span with explicit times on the calling thread's buffer
/// (for intervals measured elsewhere, such as a request's server time).
/// Returns its id, or 0 when dropped.
std::uint64_t record(Kind kind, std::int64_t t0, std::int64_t t1,
                     std::uint32_t unit, std::uint32_t key,
                     std::uint64_t parent) noexcept;

/// RAII span; does nothing when `on` is false.
class Scope {
 public:
  Scope(bool on, Kind kind, std::uint32_t unit, std::uint32_t key) noexcept
      : id_(on ? begin(kind, unit, key) : 0) {}
  ~Scope() {
    if (id_ != 0) end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint64_t id_;
};

/// Every closed span.  Call only after the recording threads have
/// synchronized with the caller (joined, or passed a barrier).
[[nodiscard]] std::vector<Span> collect();

/// Self time of every span in `spans` (same order): its duration minus the
/// part of it covered by its children.  Children are the spans naming it as
/// parent; they are clipped to the parent's interval.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Writes the first `max_events` spans (by start time) as a Chrome
/// trace-event JSON file that Perfetto and chrome://tracing open.  Returns
/// false on an I/O error.
bool write_chrome(const std::vector<Span>& spans, const std::string& path,
                  std::size_t max_events);

}  // namespace pb::trace
