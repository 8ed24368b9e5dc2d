// Unit tests for the byte-range dependence tracker (BDDT's rules on exact
// byte ranges): two clauses conflict exactly when their bytes overlap and
// one of them writes.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "dep/block_tracker.hpp"

namespace {

using sigrt::dep::Access;
using sigrt::dep::BlockTracker;
using sigrt::dep::Mode;
using sigrt::dep::Node;

// The tracker circulates raw Node*; these tests own the nodes (shared_ptr
// for convenience) and rely on the default no-op lifetime hooks.
std::shared_ptr<Node> make_node() { return std::make_shared<Node>(); }

std::size_t reg(BlockTracker& t, const std::shared_ptr<Node>& n,
                std::initializer_list<Access> accesses) {
  std::vector<Access> v(accesses);
  return t.register_node(n.get(), v);
}

// Out-param complete() wrapped back into a value for terse assertions.
std::vector<Node*> complete(BlockTracker& t, Node& n) {
  std::vector<Node*> out;
  t.complete(n, out);
  return out;
}

TEST(BlockTracker, FirstWriterHasNoDependencies) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  EXPECT_EQ(reg(t, w, {sigrt::dep::out(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, ReadAfterWriteCreatesEdge) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
}

TEST(BlockTracker, WriteAfterWriteCreatesEdge) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  reg(t, w1, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(data.data(), data.size())}), 1u);
}

TEST(BlockTracker, WriteAfterReadsDependsOnAllReaders) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto r1 = make_node();
  auto r2 = make_node();
  auto w = make_node();
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  reg(t, r2, {sigrt::dep::in(data.data(), data.size())});
  EXPECT_EQ(reg(t, w, {sigrt::dep::out(data.data(), data.size())}), 2u);
}

TEST(BlockTracker, ReadersDoNotDependOnEachOther) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto r1 = make_node();
  auto r2 = make_node();
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  EXPECT_EQ(reg(t, r2, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, CompletedPredecessorAddsNoEdge) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  (void)complete(t, *w);
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, CompleteReturnsDependents) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r1 = make_node();
  auto r2 = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  reg(t, r2, {sigrt::dep::in(data.data(), data.size())});
  auto deps = complete(t, *w);
  EXPECT_EQ(deps.size(), 2u);
}

TEST(BlockTracker, TwoClausesOverOneWriterDeriveOneEdge) {
  BlockTracker t;
  // The reader's two clauses each overlap the writer's range; still
  // exactly one edge to the writer.
  alignas(64) std::array<int, 256> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, r,
                {sigrt::dep::in(&data[0], 64), sigrt::dep::in(&data[128], 64)}),
            1u);
  EXPECT_EQ(complete(t, *w).size(), 1u);
}

TEST(BlockTracker, DisjointRangesAreIndependent) {
  BlockTracker t;
  // Two regions far apart: writer of one never blocks reader of the other.
  alignas(64) std::array<int, 16> a{};
  alignas(64) std::array<int, 16> b{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(a.data(), a.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(b.data(), b.size())}), 0u);
}

TEST(BlockTracker, InOutActsAsReadAndWrite) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w1 = make_node();
  auto rw = make_node();
  auto r = make_node();
  reg(t, w1, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, rw, {sigrt::dep::inout(data.data(), data.size())}), 1u);
  // Subsequent reader depends on the inout node (the new last writer).
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
  EXPECT_EQ(complete(t, *rw).size(), 1u);
}

TEST(BlockTracker, SelfOverlapWithinOneRegistrationIsNotADependency) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto n = make_node();
  // Reads and writes the same range in one registration: no self edge.
  EXPECT_EQ(reg(t, n,
                {sigrt::dep::in(data.data(), data.size()),
                 sigrt::dep::out(data.data(), data.size())}),
            0u);
}

TEST(BlockTracker, EmptyAndNullAccessesIgnored) {
  BlockTracker t;
  auto n = make_node();
  EXPECT_EQ(reg(t, n, {Access{nullptr, 128, Mode::Out}, Access{&t, 0, Mode::In}}),
            0u);
}

TEST(BlockTracker, ResetForgetsHistory) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  t.reset();
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, StatsCountEdgesAndLiveRegions) {
  BlockTracker t;
  alignas(64) std::array<int, 32> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  reg(t, r, {sigrt::dep::in(data.data(), data.size())});
  auto s = t.stats();
  EXPECT_EQ(s.registered_nodes, 2u);
  EXPECT_EQ(s.edges, 1u);
  EXPECT_EQ(s.live_regions, 1u);
  (void)complete(t, *w);
  (void)complete(t, *r);
  EXPECT_EQ(t.stats().live_regions, 0u);
}

TEST(BlockTracker, DisjointBytesInOneBlockDoNotConflict) {
  BlockTracker t;
  // Two 8-byte writes in the same 1 KiB block: disjoint bytes, no edge.
  alignas(1024) std::array<double, 4> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  auto r = make_node();
  reg(t, w1, {sigrt::dep::out(&data[0])});
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(&data[1])}), 0u);
  // A reader of the bytes between the two writes depends on neither.
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(&data[2], 2)}), 0u);
}

TEST(BlockTracker, OneByteTrueOverlapIsOrdered) {
  BlockTracker t;
  alignas(64) std::array<unsigned char, 64> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  auto r = make_node();
  reg(t, w1, {sigrt::dep::out(&data[0], 8)});
  // [7, 15) shares byte 7 with [0, 8).
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(&data[7], 8)}), 1u);
  // A one-byte read of byte 7 depends on its last writer only.
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(&data[7], 1)}), 1u);
  EXPECT_EQ(complete(t, *w1).size(), 1u);
  EXPECT_EQ(complete(t, *w2).size(), 1u);
}

TEST(BlockTracker, Listing1RowsAreIndependent) {
  // The paper's Listing 1 footprint: every row task reads the whole
  // 512x512 image and writes its own 512 B output row.  The output buffer
  // sits 16 B past a 1 KiB boundary (where a large heap allocation lands),
  // so a 1 KiB block tracker would chain every row to the next (509 WAW
  // edges over 510 rows); byte ranges find no edge at all.
  constexpr std::size_t kW = 512;
  constexpr std::size_t kH = 512;
  std::vector<unsigned char> img(kW * kH);
  std::vector<unsigned char> storage(kW * kH + 2048);
  const auto base = reinterpret_cast<std::uintptr_t>(storage.data());
  unsigned char* res = storage.data() + ((1024 - base % 1024) % 1024) + 16;

  BlockTracker t;
  std::vector<std::shared_ptr<Node>> nodes;
  std::size_t edges = 0;
  for (std::size_t i = 1; i + 1 < kH; ++i) {
    auto n = make_node();
    edges += reg(t, n,
                 {sigrt::dep::in(img.data(), kW * kH),
                  sigrt::dep::out(res + i * kW, kW)});
    nodes.push_back(n);
  }
  EXPECT_EQ(nodes.size(), 510u);
  EXPECT_EQ(edges, 0u);
  EXPECT_EQ(t.stats().edges, 0u);
  for (auto& n : nodes) EXPECT_TRUE(complete(t, *n).empty());
  EXPECT_EQ(t.stats().live_regions, 0u);
}

// Node that counts its lifetime hooks, to check that every pin a split
// adds is dropped again.
class CountingNode : public Node {
 public:
  void ref_retain() noexcept override { ++retains; }
  void ref_release() noexcept override { ++releases; }
  int retains = 0;
  int releases = 0;
};

TEST(BlockTracker, SplitFragmentsMergeBackAndReleaseTheirPins) {
  BlockTracker t;
  alignas(64) std::array<unsigned char, 256> data{};
  CountingNode w;
  CountingNode r1;
  CountingNode r2;
  CountingNode w2;
  std::vector<Access> wa{sigrt::dep::out(data.data(), data.size())};
  t.register_node(&w, wa);
  // Two readers inside the written range cut it into five fragments.
  std::vector<Access> ra1{sigrt::dep::in(&data[32], 32)};
  std::vector<Access> ra2{sigrt::dep::in(&data[128], 64)};
  EXPECT_EQ(t.register_node(&r1, ra1), 1u);
  EXPECT_EQ(t.register_node(&r2, ra2), 1u);
  EXPECT_EQ(t.stats().live_regions, 5u);
  std::vector<Node*> out;
  t.complete(r1, out);
  // [0,32) [32,64) [64,128) hold the same writer again and merge.
  EXPECT_EQ(t.stats().live_regions, 3u);
  // A writer over the middle displaces w there and r2's [128,192) tail.
  std::vector<Access> wa2{sigrt::dep::out(&data[100], 60)};
  EXPECT_EQ(t.register_node(&w2, wa2), 2u);
  t.complete(w, out);
  t.complete(r2, out);
  t.complete(w2, out);
  EXPECT_EQ(t.stats().live_regions, 0u);
  // w handed out r1, r2 and w2; r2 handed out w2.
  EXPECT_EQ(out.size(), 4u);
  for (Node* n : out) n->ref_release();  // the caller adopts each entry
  for (const CountingNode* n : {&w, &r1, &r2, &w2}) {
    EXPECT_EQ(n->retains, n->releases);
  }
}

TEST(BlockTracker, CompletedNodeStaysRetainedUntilTheNextDrain) {
  // complete() takes no lock: the node goes onto the retired list with one
  // more reference, and its regions stay until a drain drops them — the
  // next registration, on any bytes, or reclaim().
  for (const bool by_registration : {true, false}) {
    BlockTracker t;
    alignas(64) std::array<unsigned char, 128> data{};
    CountingNode w;
    CountingNode other;
    std::vector<Access> wa{sigrt::dep::out(&data[0], 64)};
    t.register_node(&w, wa);
    std::vector<Node*> out;
    t.complete(w, out);
    EXPECT_TRUE(out.empty());
    // The registration's shared pin reference and the retired list's.
    EXPECT_EQ(w.retains, 2) << "by_registration " << by_registration;
    EXPECT_EQ(w.releases, 0) << "by_registration " << by_registration;
    if (by_registration) {
      std::vector<Access> oa{sigrt::dep::in(&data[64], 64)};
      EXPECT_EQ(t.register_node(&other, oa), 0u);
    } else {
      t.reclaim();
    }
    EXPECT_EQ(w.retains, w.releases) << "by_registration " << by_registration;
    // Only the unrelated reader's region is left.
    EXPECT_EQ(t.stats().live_regions, by_registration ? 1u : 0u);
  }
}

TEST(BlockTracker, WriterWhoseBytesWereAllOverwrittenIsNoPredecessor) {
  BlockTracker t;
  alignas(128) std::array<unsigned char, 128> data{};
  auto wa = make_node();
  auto wb = make_node();
  auto wc = make_node();
  auto r = make_node();
  reg(t, wa, {sigrt::dep::out(&data[0], 128)});
  EXPECT_EQ(reg(t, wb, {sigrt::dep::out(&data[64], 64)}), 1u);
  EXPECT_EQ(reg(t, wc, {sigrt::dep::out(&data[0], 64)}), 1u);
  // Each byte's last writer is wc or wb; wa, though not yet complete,
  // wrote no byte the reader can see, so it is no predecessor.
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(&data[0], 128)}), 2u);
  const std::vector<Node*> from_wa = complete(t, *wa);
  ASSERT_EQ(from_wa.size(), 2u);
  EXPECT_TRUE(from_wa[0] != r.get() && from_wa[1] != r.get());
}

TEST(BlockTracker, WideClauseIsOneRegion) {
  // Listing 1's in(whole image): one clause over 256 KiB is one region,
  // whatever its length, and nothing is left once it completes.
  BlockTracker t;
  std::vector<unsigned char> data(256 * 1024);
  auto r = make_node();
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
  EXPECT_EQ(t.stats().live_regions, 1u);
  EXPECT_TRUE(complete(t, *r).empty());
  EXPECT_EQ(t.stats().live_regions, 0u);
}

TEST(BlockTracker, WideClauseDerivesEachEdgeOnce) {
  BlockTracker t;
  // A 64 KiB read over two narrow writers at far ends of it.
  std::vector<unsigned char> data(64 * 1024);
  auto w1 = make_node();
  auto w2 = make_node();
  auto r = make_node();
  reg(t, w1, {sigrt::dep::out(&data[100], 10)});
  reg(t, w2, {sigrt::dep::out(&data[60000], 10)});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 2u);
  // Overwriting w1's bytes elsewhere leaves the wide reader's view exact:
  // a writer of [100,110) depends on w1 (WAW) and r (WAR) only.
  auto w3 = make_node();
  EXPECT_EQ(reg(t, w3, {sigrt::dep::out(&data[100], 10)}), 2u);
}

TEST(BlockTracker, ChainOfWritersLinksPairwise) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  std::vector<std::shared_ptr<Node>> nodes;
  for (int i = 0; i < 5; ++i) {
    auto n = make_node();
    const std::size_t deps = reg(t, n, {sigrt::dep::out(data.data(), data.size())});
    EXPECT_EQ(deps, i == 0 ? 0u : 1u);
    nodes.push_back(n);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(complete(t, *nodes[static_cast<std::size_t>(i)]).size(), 1u);
  }
}

}  // namespace
