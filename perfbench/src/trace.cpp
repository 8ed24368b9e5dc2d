#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "support/timer.hpp"

namespace pb::trace {
namespace {

struct Buffer {
  std::unique_ptr<Span[]> spans;
  std::size_t cap = 0;
  /// Published with release by the owning thread; collect() acquires.
  std::atomic<std::size_t> n{0};
};

struct State {
  std::vector<std::unique_ptr<Buffer>> buffers;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> dropped{0};
  /// Bumped by arm(): thread-local claims from an older arm() are stale.
  std::atomic<std::uint64_t> generation{0};
};

State g_state;

thread_local Buffer* tl_buf = nullptr;
thread_local std::uint64_t tl_gen = 0;
/// Thread id in spans: low byte the buffer, high byte the arm() generation,
/// so ids stay unique across arms.
thread_local std::uint16_t tl_index = 0;
thread_local std::uint64_t tl_current = 0;

constexpr int kLocalBits = 40;

std::uint64_t make_id(std::uint16_t thread, std::size_t local) noexcept {
  return (static_cast<std::uint64_t>(thread) + 1) << kLocalBits |
         (static_cast<std::uint64_t>(local) + 1);
}

Buffer* claim() noexcept {
  const std::uint64_t gen = g_state.generation.load(std::memory_order_acquire);
  if (tl_gen != gen) {
    tl_gen = gen;
    tl_buf = nullptr;
    tl_current = 0;
    const std::size_t i = g_state.next.fetch_add(1, std::memory_order_relaxed);
    if (i < g_state.buffers.size()) {
      tl_buf = g_state.buffers[i].get();
      tl_index = static_cast<std::uint16_t>((gen & 0xff) << 8 | (i & 0xff));
    }
  }
  return tl_buf;
}

/// Reserves the next slot of the calling thread's buffer, or counts a drop.
Span* reserve() noexcept {
  Buffer* b = claim();
  if (b == nullptr) {
    g_state.dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const std::size_t i = b->n.load(std::memory_order_relaxed);
  if (i >= b->cap) {
    g_state.dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Span* s = &b->spans[i];
  s->id = make_id(tl_index, i);
  s->thread = tl_index;
  return s;
}

void publish(const Span* s) noexcept {
  tl_buf->n.store(static_cast<std::size_t>(s - tl_buf->spans.get()) + 1,
                  std::memory_order_release);
}

}  // namespace

const char* name(Kind k) noexcept {
  switch (k) {
    case Kind::Run: return "run";
    case Kind::Spawn: return "spawn";
    case Kind::BodyAccurate: return "body.accurate";
    case Kind::BodyApprox: return "body.approx";
    case Kind::Barrier: return "barrier";
    case Kind::Help: return "help";
    case Kind::Request: return "request";
    case Kind::Server: return "server";
  }
  return "?";
}

void arm(std::size_t threads, std::size_t spans_per_thread) {
  g_state.buffers.clear();
  for (std::size_t i = 0; i < threads; ++i) {
    auto b = std::make_unique<Buffer>();
    // Default-initialized trivial elements: no page is touched here.
    b->spans.reset(new Span[spans_per_thread]);
    b->cap = spans_per_thread;
    g_state.buffers.push_back(std::move(b));
  }
  g_state.next.store(0, std::memory_order_relaxed);
  g_state.dropped.store(0, std::memory_order_relaxed);
  g_state.generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t recorded() noexcept {
  std::uint64_t n = 0;
  for (const auto& b : g_state.buffers) n += b->n.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t dropped() noexcept {
  return g_state.dropped.load(std::memory_order_relaxed);
}

std::uint64_t begin(Kind kind, std::uint32_t unit, std::uint32_t key) noexcept {
  Span* s = reserve();
  if (s == nullptr) return 0;
  s->t0 = sigrt::support::now_ns();
  s->t1 = 0;
  s->parent = tl_current;
  s->unit = unit;
  s->key = key;
  s->kind = kind;
  publish(s);
  tl_current = s->id;
  return s->id;
}

void end(std::uint64_t id) noexcept {
  Span& s = tl_buf->spans[(id & ((std::uint64_t{1} << kLocalBits) - 1)) - 1];
  s.t1 = sigrt::support::now_ns();
  tl_current = s.parent;
}

std::uint64_t record(Kind kind, std::int64_t t0, std::int64_t t1,
                     std::uint32_t unit, std::uint32_t key,
                     std::uint64_t parent) noexcept {
  Span* s = reserve();
  if (s == nullptr) return 0;
  s->t0 = t0;
  s->t1 = t1;
  s->parent = parent;
  s->unit = unit;
  s->key = key;
  s->kind = kind;
  publish(s);
  return s->id;
}

std::vector<Span> collect() {
  std::vector<Span> out;
  for (const auto& b : g_state.buffers) {
    const std::size_t n = b->n.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (b->spans[i].t1 != 0) out.push_back(b->spans[i]);
    }
  }
  return out;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& c : spans) {
    if (c.parent == 0) continue;
    const auto it = index.find(c.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(c.t0, p.t0);
    const std::int64_t hi = std::min(c.t1, p.t1);
    if (hi > lo) covered[it->second] += hi - lo;
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max<std::int64_t>(0, spans[i].t1 - spans[i].t0 - covered[i]);
  }
  return self;
}

bool write_chrome(const std::vector<Span>& spans, const std::string& path,
                  std::size_t max_events) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return spans[a].t0 < spans[b].t0; });
  if (order.size() > max_events) order.resize(max_events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = order.empty() ? 0 : spans[order.front()].t0;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Span& s = spans[order[i]];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%u,\"key\":%u,"
                 "\"id\":%llu,\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", name(s.kind), static_cast<unsigned>(s.thread),
                 static_cast<double>(s.t0 - base) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3, s.unit, s.key,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pb::trace
