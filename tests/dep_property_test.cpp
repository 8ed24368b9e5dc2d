// Property test: end-to-end dependence enforcement.
//
// Random tasks draw random byte ranges (read/write/rw) over a shared arena.
// For any two tasks whose accesses conflict — some byte is named by both,
// and at least one of the two clauses writes — the later-spawned task must
// not start before the earlier one finished: the in()/out() contract the
// paper's runtime inherits from BDDT, at byte granularity.  Verified
// against a brute-force conflict oracle over recorded start/end timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sigrt.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

struct Params {
  unsigned workers;
  std::size_t arena_bytes;  ///< clauses run up to an eighth of this
  std::size_t tasks;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "w" + std::to_string(p.workers) + "_a" + std::to_string(p.arena_bytes) +
         "_n" + std::to_string(p.tasks) + "_s" + std::to_string(p.seed);
}

struct AccessSpec {
  std::size_t offset;
  std::size_t bytes;
  sigrt::dep::Mode mode;
};

class DepProperty : public testing::TestWithParam<Params> {};

TEST_P(DepProperty, ConflictingTasksNeverOverlapInTime) {
  const Params& p = GetParam();
  const std::size_t kArena = p.arena_bytes;
  std::vector<std::uint8_t> arena(kArena);

  sigrt::support::Xoshiro256 rng(p.seed);
  std::vector<std::vector<AccessSpec>> specs(p.tasks);
  for (auto& task_specs : specs) {
    const std::size_t n_accesses = 1 + rng.bounded(3);
    for (std::size_t a = 0; a < n_accesses; ++a) {
      AccessSpec s;
      s.offset = rng.bounded(kArena - 1);
      s.bytes = 1 + rng.bounded(kArena / 8);
      if (s.offset + s.bytes > kArena) s.bytes = kArena - s.offset;
      const auto m = rng.bounded(3);
      s.mode = m == 0 ? sigrt::dep::Mode::In
                      : (m == 1 ? sigrt::dep::Mode::Out : sigrt::dep::Mode::InOut);
      task_specs.push_back(s);
    }
  }

  std::vector<std::int64_t> start_ns(p.tasks, 0);
  std::vector<std::int64_t> end_ns(p.tasks, 0);

  RuntimeConfig c;
  c.workers = p.workers;
  c.policy = PolicyKind::Agnostic;
  {
    Runtime rt(c);
    for (std::size_t t = 0; t < p.tasks; ++t) {
      sigrt::TaskOptions opts;
      opts.accurate = [&, t] {
        start_ns[t] = sigrt::support::now_ns();
        // A little work so overlaps would actually be observable.
        volatile std::uint32_t x = 0;
        for (int i = 0; i < 2000; ++i) x += static_cast<std::uint32_t>(i);
        end_ns[t] = sigrt::support::now_ns();
      };
      for (const AccessSpec& s : specs[t]) {
        opts.accesses.push_back({arena.data() + s.offset, s.bytes, s.mode});
      }
      rt.spawn(std::move(opts));
    }
    rt.wait_all();
  }

  // Brute-force oracle: a conflict is some byte named by both tasks with
  // at least one write.
  auto conflicts = [&](std::size_t i, std::size_t j) {
    for (const AccessSpec& a : specs[i]) {
      for (const AccessSpec& b : specs[j]) {
        if (!sigrt::dep::writes(a.mode) && !sigrt::dep::writes(b.mode)) continue;
        if (a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes) {
          return true;
        }
      }
    }
    return false;
  };

  std::size_t checked = 0;
  for (std::size_t i = 0; i < p.tasks; ++i) {
    for (std::size_t j = i + 1; j < p.tasks; ++j) {
      if (!conflicts(i, j)) continue;
      ++checked;
      EXPECT_GE(start_ns[j], end_ns[i])
          << "conflicting tasks " << i << " and " << j << " overlapped";
    }
  }
  // The generator must actually produce conflicts, or the test is vacuous.
  EXPECT_GT(checked, p.tasks / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DepProperty,
    testing::ValuesIn(std::vector<Params>{
        {0, 1024, 60, 1},
        {0, 16384, 60, 2},
        {1, 4096, 80, 3},
        {2, 1024, 80, 4},
        {4, 65536, 80, 5},
        {4, 16384, 60, 6},
        {2, 4096, 120, 7},
        {4, 1024, 120, 8},
    }),
    param_name);

// ---------------------------------------------------------------------------
// Direct tracker oracles: the tracker is exercised without the
// runtime so its own contracts (edge counts, refcount balance, conflict
// exclusion) can be checked exactly.

using sigrt::dep::Access;
using sigrt::dep::BlockTracker;
using sigrt::dep::Mode;
using sigrt::dep::Node;

// Single-threaded reference model of the tracker's semantics: one global
// map from each byte to its last writer and the readers since, updated
// byte by byte in clause order.  The region tracker, driven
// serially, must agree with it exactly — predecessor counts and the
// dependents each completion hands out.
class ReferenceTracker {
 public:
  ReferenceTracker(const std::uint8_t* arena, std::size_t bytes,
                   std::size_t nodes)
      : base_(arena), bytes_(bytes), nodes_(nodes) {}

  std::size_t register_node(std::size_t id, const std::vector<Access>& accesses) {
    ++stamp_;
    std::size_t preds = 0;
    for (const Access& a : accesses) {
      if (a.ptr == nullptr || a.bytes == 0) continue;
      const auto lo = static_cast<std::size_t>(
          static_cast<const std::uint8_t*>(a.ptr) - base_);
      nodes_[id].ranges.emplace_back(lo, lo + a.bytes);
      for (std::size_t x = lo; x < lo + a.bytes; ++x) {
        ByteState& st = bytes_[x];
        if (link(st.writer, id)) ++preds;  // RAW (read) or WAW (write)
        if (sigrt::dep::writes(a.mode)) {
          for (std::size_t r : st.readers) {
            if (link(static_cast<std::ptrdiff_t>(r), id)) ++preds;  // WAR
          }
          st.readers.clear();
          st.writer = static_cast<std::ptrdiff_t>(id);
        } else {
          st.readers.push_back(id);
        }
      }
    }
    return preds;
  }

  std::vector<std::size_t> complete(std::size_t id) {
    RefNode& n = nodes_[id];
    n.done = true;
    for (const auto& [lo, hi] : n.ranges) {
      for (std::size_t x = lo; x < hi; ++x) {
        ByteState& st = bytes_[x];
        if (st.writer == static_cast<std::ptrdiff_t>(id)) st.writer = -1;
        std::erase(st.readers, id);
      }
    }
    auto out = std::move(n.dependents);
    n.dependents.clear();
    return out;
  }

 private:
  struct RefNode {
    bool done = false;
    std::uint64_t visit = 0;
    std::vector<std::size_t> dependents;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
  };
  struct ByteState {
    std::ptrdiff_t writer = -1;
    std::vector<std::size_t> readers;
  };

  bool link(std::ptrdiff_t pred, std::size_t succ) {
    if (pred < 0 || static_cast<std::size_t>(pred) == succ) return false;
    RefNode& p = nodes_[static_cast<std::size_t>(pred)];
    if (p.done || p.visit == stamp_) return false;
    p.visit = stamp_;
    p.dependents.push_back(succ);
    return true;
  }

  const std::uint8_t* base_;
  std::uint64_t stamp_ = 0;
  std::vector<ByteState> bytes_;
  std::vector<RefNode> nodes_;
};

TEST(DepOracle, SerializedTrackerMatchesReference) {
  constexpr std::size_t kNodes = 300;
  constexpr std::size_t kArena = 8192;
  static std::vector<std::uint8_t> arena(kArena);

  for (std::uint64_t seed : {11u, 22u, 33u}) {
    BlockTracker tracker;
    ReferenceTracker reference(arena.data(), kArena, kNodes);
    std::vector<Node> nodes(kNodes);
    sigrt::support::Xoshiro256 rng(seed);

    std::vector<std::size_t> live;  // registered, not yet completed
    std::size_t next = 0;
    std::uint64_t ops = 0;
    while (next < kNodes || !live.empty()) {
      const bool can_register = next < kNodes;
      const bool do_register =
          can_register && (live.empty() || rng.bounded(2) == 0);
      if (do_register) {
        std::vector<Access> accesses;
        const std::size_t n = 1 + rng.bounded(3);
        for (std::size_t a = 0; a < n; ++a) {
          const std::size_t off = rng.bounded(kArena - 1);
          // Mostly narrow clauses, some spanning half the arena.
          const std::size_t max_bytes = rng.bounded(4) == 0 ? kArena / 2 : 256;
          std::size_t bytes = 1 + rng.bounded(max_bytes);
          if (off + bytes > kArena) bytes = kArena - off;
          const auto m = rng.bounded(3);
          accesses.push_back(
              {arena.data() + off, bytes,
               m == 0 ? Mode::In : (m == 1 ? Mode::Out : Mode::InOut)});
        }
        const std::size_t got = tracker.register_node(&nodes[next], accesses);
        const std::size_t want = reference.register_node(next, accesses);
        ASSERT_EQ(got, want) << "register #" << next << " seed " << seed;
        live.push_back(next);
        ++next;
      } else {
        const std::size_t pick = rng.bounded(live.size());
        const std::size_t id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        std::vector<Node*> out;
        tracker.complete(nodes[id], out);
        std::vector<std::size_t> got;
        got.reserve(out.size());
        for (Node* n : out) {
          got.push_back(static_cast<std::size_t>(n - nodes.data()));
        }
        std::vector<std::size_t> want = reference.complete(id);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "complete #" << id << " seed " << seed;
      }
      ++ops;
    }
    ASSERT_EQ(ops, kNodes * 2);
    // Every region is erased once its clauses complete.
    EXPECT_EQ(tracker.stats().live_regions, 0u);
  }
}

// Node with instrumented lifetime hooks and a runtime-style gate, for
// driving the tracker from multiple threads without the runtime.
class CountingNode : public Node {
 public:
  void ref_retain() noexcept override {
    retains.fetch_add(1, std::memory_order_relaxed);
  }
  void ref_release() noexcept override {
    releases.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> retains{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint32_t> gate{0};
};

struct OracleParams {
  unsigned threads;
  std::size_t nodes_per_thread;
  std::uint64_t seed;
};

// Reusable counting rendezvous: the last of `parties` arrivals of a round
// opens it for everyone.  A waiter gives up once `abort` is set, so one
// thread's failure ends the test instead of hanging the others.
class Rendezvous {
 public:
  explicit Rendezvous(unsigned parties) : parties_(parties) {}

  bool arrive_and_wait(const std::atomic<bool>& abort) {
    const unsigned round = round_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      round_.fetch_add(1, std::memory_order_release);
      return true;
    }
    while (round_.load(std::memory_order_acquire) == round) {
      if (abort.load(std::memory_order_relaxed)) return false;
      std::this_thread::yield();
    }
    return true;
  }

 private:
  const unsigned parties_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> round_{0};
};

constexpr std::size_t kCell = 64;
constexpr std::size_t kCells = 48;  // small arena: heavy overlap

/// One node's footprint over the arena's cells: its clauses and, per cell,
/// 0 (untouched), 1 (read) or 2 (written).
struct Footprint {
  std::vector<std::tuple<std::size_t, std::size_t, Mode>> clauses;  // cells [lo, hi)
  std::array<std::uint8_t, kCells> role{};
};

/// 1-3 clauses of 1-4 cells each.
Footprint random_footprint(sigrt::support::Xoshiro256& rng) {
  Footprint f;
  const std::size_t n = 1 + rng.bounded(3);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t lo = rng.bounded(kCells);
    const std::size_t hi = std::min(lo + 1 + rng.bounded(4), kCells);
    const auto m = rng.bounded(3);
    const Mode mode = m == 0 ? Mode::In : (m == 1 ? Mode::Out : Mode::InOut);
    f.clauses.emplace_back(lo, hi, mode);
    for (std::size_t c = lo; c < hi; ++c) {
      f.role[c] = std::max<std::uint8_t>(f.role[c],
                                         sigrt::dep::writes(mode) ? 2 : 1);
    }
  }
  return f;
}

bool footprints_conflict(const Footprint& a, const Footprint& b) {
  for (std::size_t c = 0; c < kCells; ++c) {
    if (a.role[c] != 0 && b.role[c] != 0 && std::max(a.role[c], b.role[c]) == 2) {
      return true;
    }
  }
  return false;
}

/// Fewest edges one round of live nodes must produce, in any registration
/// order: every node that conflicts with an earlier-registered one gets at
/// least one edge (to it, or to a live node that displaced it), and the
/// nodes that do not form an independent set of the conflict graph.  So
/// the floor is the node count minus the graph's independence number.
std::size_t round_edge_floor(const std::vector<const Footprint*>& round) {
  const std::size_t n = round.size();
  std::vector<std::uint32_t> adjacent(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (footprints_conflict(*round[i], *round[j])) {
        adjacent[i] |= 1u << j;
        adjacent[j] |= 1u << i;
      }
    }
  }
  std::size_t independence = 0;
  for (std::uint32_t set = 0; set < (1u << n); ++set) {
    bool independent = true;
    for (std::size_t i = 0; i < n && independent; ++i) {
      if ((set >> i & 1) != 0 && (adjacent[i] & set) != 0) independent = false;
    }
    if (independent) {
      independence = std::max<std::size_t>(
          independence, static_cast<std::size_t>(std::popcount(set)));
    }
  }
  return n - independence;
}

// T threads register/complete overlapping random footprints directly
// against one tracker.  All threads meet at a rendezvous after
// registering their i-th node and before waiting on its gate, so the i-th
// nodes are all in flight together whatever the scheduler does; this
// cannot deadlock, because a node registered earlier never waits on one
// registered later.  Checked properties:
//   * conflict exclusion — two tasks whose footprints conflict never
//     execute concurrently (per-cell writer/reader occupancy counters);
//   * edge balance — every predecessor counted by register_node() is
//     handed out by exactly one complete(), and the tracker's edge stat
//     agrees;
//   * refcount balance — after all nodes complete, every retain is paired
//     with a release and no region is left (the tracker pins nothing);
//   * non-vacuity — at least the edges the seeded footprints force
//     (round_edge_floor over every round);
//   * progress — a cycle in the discovered graph (the striping hazard this
//     guards against) would deadlock the gates; the bounded spin turns
//     that into a failure instead of a hang.
class DepConcurrentOracle : public testing::TestWithParam<OracleParams> {};

TEST_P(DepConcurrentOracle, ConflictExclusionEdgeAndRefBalance) {
  const OracleParams& p = GetParam();
  constexpr std::size_t kArena = kCells * kCell;
  constexpr std::uint32_t kHold = 1u << 20;
  static std::vector<std::uint8_t> arena(kArena);
  ASSERT_LE(p.threads, 16u);  // round_edge_floor enumerates 2^threads sets

  BlockTracker tracker;
  const std::size_t total = p.threads * p.nodes_per_thread;
  std::vector<CountingNode> nodes(total);

  // Seeded footprints, generated up front so the edge floor is known.
  std::vector<Footprint> feet(total);
  for (unsigned tid = 0; tid < p.threads; ++tid) {
    sigrt::support::Xoshiro256 rng(p.seed * 977 + tid);
    for (std::size_t i = 0; i < p.nodes_per_thread; ++i) {
      feet[tid * p.nodes_per_thread + i] = random_footprint(rng);
    }
  }
  std::size_t floor = 0;
  for (std::size_t i = 0; i < p.nodes_per_thread; ++i) {
    std::vector<const Footprint*> round;
    for (unsigned tid = 0; tid < p.threads; ++tid) {
      round.push_back(&feet[tid * p.nodes_per_thread + i]);
    }
    floor += round_edge_floor(round);
  }

  // Per-cell occupancy the "execution" phase checks against.
  std::array<std::atomic<int>, kCells> writers{};
  std::array<std::atomic<int>, kCells> readers{};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> deps_found{0};
  std::atomic<std::uint64_t> deps_handed{0};
  std::atomic<bool> stuck{false};
  Rendezvous rendezvous(p.threads);

  auto worker = [&](unsigned tid) {
    std::vector<Node*> out;
    std::vector<Access> accesses;
    for (std::size_t i = 0; i < p.nodes_per_thread; ++i) {
      CountingNode& node = nodes[tid * p.nodes_per_thread + i];
      const Footprint& foot = feet[tid * p.nodes_per_thread + i];
      accesses.clear();
      for (const auto& [lo, hi, mode] : foot.clauses) {
        accesses.push_back({arena.data() + lo * kCell, (hi - lo) * kCell, mode});
      }

      // Runtime-style gate protocol: surplus hold, register, fold in the
      // dependency count, wait for predecessors.
      node.gate.store(kHold, std::memory_order_relaxed);
      const std::size_t deps = tracker.register_node(&node, accesses);
      deps_found.fetch_add(deps, std::memory_order_relaxed);
      node.gate.fetch_sub(kHold - static_cast<std::uint32_t>(deps),
                          std::memory_order_acq_rel);
      if (!rendezvous.arrive_and_wait(stuck)) return;

      const auto spin_start = std::chrono::steady_clock::now();
      while (node.gate.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
        if (std::chrono::steady_clock::now() - spin_start >
            std::chrono::seconds(60)) {
          stuck.store(true, std::memory_order_relaxed);
          return;  // cycle / lost wakeup: fail below instead of hanging
        }
      }

      // "Execute": occupy every cell of the footprint and verify no
      // conflicting occupant, with per-cell reader/writer rules (a task
      // naming a cell through several clauses occupies it once).
      for (std::size_t c = 0; c < kCells; ++c) {
        if (foot.role[c] == 2) {
          if (writers[c].fetch_add(1, std::memory_order_acq_rel) != 0 ||
              readers[c].load(std::memory_order_acquire) != 0) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (foot.role[c] == 1) {
          readers[c].fetch_add(1, std::memory_order_acq_rel);
          if (writers[c].load(std::memory_order_acquire) != 0) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      volatile unsigned sink = 0;
      for (int spin = 0; spin < 500; ++spin) {
        sink = sink + static_cast<unsigned>(spin);
      }
      for (std::size_t c = 0; c < kCells; ++c) {
        if (foot.role[c] != 0) {
          (foot.role[c] == 2 ? writers[c] : readers[c])
              .fetch_sub(1, std::memory_order_acq_rel);
        }
      }

      // Complete: adopt each handed-out dependent, open its gate, release.
      out.clear();
      tracker.complete(node, out);
      deps_handed.fetch_add(out.size(), std::memory_order_relaxed);
      for (Node* d : out) {
        auto* dep = static_cast<CountingNode*>(d);
        dep->gate.fetch_sub(1, std::memory_order_acq_rel);
        dep->ref_release();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(p.threads);
  for (unsigned t = 0; t < p.threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  ASSERT_FALSE(stuck.load()) << "gate never opened: graph cycle or lost wakeup";
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(deps_found.load(), deps_handed.load());
  EXPECT_EQ(tracker.stats().edges, deps_found.load());
  EXPECT_EQ(tracker.stats().registered_nodes, total);
  EXPECT_EQ(tracker.stats().live_regions, 0u);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(nodes[i].retains.load(), nodes[i].releases.load())
        << "unbalanced refcount on node " << i;
    EXPECT_EQ(nodes[i].gate.load(), 0u);
  }
  // The rendezvous makes every round's overlap deterministic, so the
  // seeded footprints alone fix how many edges must be found.
  EXPECT_GE(deps_found.load(), floor);
  EXPECT_GT(floor, total / 10) << "footprints too sparse to test exclusion";
}

std::string oracle_name(const testing::TestParamInfo<OracleParams>& info) {
  return "t" + std::to_string(info.param.threads) + "_n" +
         std::to_string(info.param.nodes_per_thread) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DepConcurrentOracle,
                         testing::ValuesIn(std::vector<OracleParams>{
                             {2, 600, 1},
                             {4, 400, 2},
                             {4, 400, 3},
                             {8, 200, 4},
                         }),
                         oracle_name);

// One thread completes a writer while another registers a reader of its
// bytes, round after round, with a seeded delay that moves the completion
// across the registration.  Whichever wins, the reader's predecessor count
// must match what the writer's complete() hands out: a list already closed
// yields no edge, a push that loses against the closing exchange yields
// none either, and an edge pushed before the close is harvested.  A lost
// edge would leave the reader's gate shut for good.
TEST(DepOracle, RegistrationRacingCompletionMakesAnEdgeOnlyWhenHandedOut) {
  constexpr int kRounds = 20000;
  constexpr std::uint64_t kMaxDelay = 2000;  // spin steps before complete()
  alignas(64) static std::array<std::uint8_t, 64> cell{};
  const std::vector<Access> write{{cell.data(), cell.size(), Mode::Out}};
  const std::vector<Access> read{{cell.data(), cell.size(), Mode::In}};

  BlockTracker tracker;
  std::vector<CountingNode> writers(kRounds);
  std::vector<CountingNode> readers(kRounds);
  std::vector<std::size_t> found(kRounds, 0);
  std::atomic<int> armed{-1};
  std::atomic<int> go{-1};
  std::atomic<int> done{-1};
  // Spins hot, so the registrar answers `go` within a cache-line transfer;
  // yields only when the other thread cannot run.
  const auto spin_until = [](const std::atomic<int>& flag, int round) {
    for (int spins = 0; flag.load(std::memory_order_acquire) < round; ++spins) {
      if (spins > (1 << 16)) std::this_thread::yield();
    }
  };

  std::thread registrar([&] {
    for (int k = 0; k < kRounds; ++k) {
      armed.store(k, std::memory_order_release);
      spin_until(go, k);
      found[static_cast<std::size_t>(k)] =
          tracker.register_node(&readers[static_cast<std::size_t>(k)], read);
      done.store(k, std::memory_order_release);
    }
  });

  sigrt::support::Xoshiro256 rng(7);
  std::vector<Node*> out;
  std::size_t edges = 0;
  std::size_t mismatches = 0;
  for (int k = 0; k < kRounds; ++k) {
    const auto i = static_cast<std::size_t>(k);
    // The previous round's reader completed, so the writer finds nothing.
    ASSERT_EQ(tracker.register_node(&writers[i], write), 0u) << "round " << k;
    spin_until(armed, k);
    go.store(k, std::memory_order_release);
    volatile unsigned sink = 0;
    for (std::uint64_t d = rng.bounded(kMaxDelay); d > 0; --d) sink = sink + 1;
    out.clear();
    tracker.complete(writers[i], out);
    spin_until(done, k);
    const bool handed = out.size() == 1 && out[0] == &readers[i];
    if (found[i] != out.size() || (found[i] == 1 && !handed)) ++mismatches;
    edges += found[i];
    for (Node* n : out) n->ref_release();  // the caller adopts each entry
    out.clear();
    tracker.complete(readers[i], out);
    EXPECT_TRUE(out.empty()) << "round " << k;
  }
  registrar.join();

  EXPECT_EQ(mismatches, 0u) << "registrations whose edge count disagreed "
                               "with the completion they raced";
  EXPECT_EQ(tracker.stats().edges, edges);
  EXPECT_EQ(tracker.stats().live_regions, 0u);
  for (int k = 0; k < kRounds; ++k) {
    const auto i = static_cast<std::size_t>(k);
    EXPECT_EQ(writers[i].retains.load(), writers[i].releases.load()) << k;
    EXPECT_EQ(readers[i].retains.load(), readers[i].releases.load()) << k;
  }
  RecordProperty("edges", static_cast<int>(edges));
}

}  // namespace
