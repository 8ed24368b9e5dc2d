// Self-tests of the benchmark's own logic: percentiles and their sample
// counts, request-sequence determinism, span self times and the closure
// arithmetic, and output checks that must reject a deliberately wrong result.
//
//   perfbench_selftest <scratch-file>   (the Chrome dump is written there)
//
// Exits 0 when every check holds, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "checks.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(pb::percentile(v, 0.5) == 50, "p50 of 1..100 is 50");
  expect(pb::percentile(v, 0.9) == 90, "p90 of 1..100 is 90");
  expect(pb::percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(pb::percentile(v, 1.0) == 100, "p100 of 1..100 is 100");
  expect(pb::percentile({}, 0.5) == 0, "empty sample reads 0");
  expect(pb::percentile({7.0}, 0.99) == 7.0, "single sample");
  expect(pb::samples_beyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  expect(pb::samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  expect(pb::samples_beyond(99, 0.9) == 9, "9 samples beyond p90 of 99");
  expect(pb::samples_beyond(0, 0.5) == 0, "no samples");
}

void test_picks() {
  const auto a = pb::make_picks(7, 30000, 3, 16);
  const auto b = pb::make_picks(7, 30000, 3, 16);
  const auto c = pb::make_picks(8, 30000, 3, 16);
  bool same = a.size() == 30000 && b.size() == a.size();
  bool differs = false, in_range = true;
  std::size_t per_kind[3] = {};
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].kind == b[i].kind && a[i].input == b[i].input;
    differs = differs || a[i].kind != c[i].kind || a[i].input != c[i].input;
    in_range = in_range && a[i].kind < 3 && a[i].input < 16;
    if (a[i].kind < 3) ++per_kind[a[i].kind];
  }
  expect(same, "one seed gives one request sequence");
  expect(differs, "another seed gives another request sequence");
  expect(in_range, "kinds and inputs in range");
  // 10000 expected per class; the binomial spread is about 80.
  bool balanced = true;
  for (const std::size_t n : per_kind) balanced = balanced && n > 9500 && n < 10500;
  expect(balanced, "classes are drawn uniformly");
}

pb::trace::Span span(pb::trace::Kind k, std::int64_t t0, std::int64_t t1, std::uint64_t id,
                     std::uint64_t parent, std::uint32_t unit, std::uint32_t key) {
  return pb::trace::Span{t0, t1, id, parent, unit, key, 0, k};
}

void test_self_times_and_closure() {
  using pb::trace::Kind;
  // A run [0, 1000]: two spawns, a barrier; two bodies on another thread.
  std::vector<pb::trace::Span> s = {
      span(Kind::Run, 0, 1000, 1, 0, 5, 0),
      span(Kind::Spawn, 10, 60, 2, 1, 5, 1),
      span(Kind::Spawn, 60, 100, 3, 1, 5, 2),
      span(Kind::Barrier, 100, 1000, 4, 1, 5, 0),
      span(Kind::BodyAccurate, 200, 500, 5, 0, 5, 1),
      span(Kind::BodyApprox, 300, 900, 6, 0, 5, 2),
      span(Kind::Help, 350, 450, 7, 6, 5, 2),
  };
  const auto self = pb::trace::self_times(s);
  expect(self[0] == 1000 - 50 - 40 - 900, "run self time excludes its children");
  expect(self[5] == 600 - 100, "body self time excludes its help span");
  expect(std::fabs(pb::self_seconds(s, Kind::BodyAccurate) +
                   pb::self_seconds(s, Kind::BodyApprox) - 800e-9) < 1e-15 &&
             std::fabs(pb::self_seconds(s, Kind::Help) - 100e-9) < 1e-15,
         "self seconds sum the self times of one kind");
  const pb::BatchLayers L = pb::analyze_runs(s);
  expect(L.runs == 1 && L.closure_fail == 0, "spawn phase + barrier close the run");
  expect(L.tail_us.size() == 1 && std::fabs(L.tail_us[0] - 0.1) < 1e-9,
         "barrier tail is last body end to barrier return");
  expect(L.queue_us.size() == 2 && std::fabs(L.queue_us[0] - 0.14) < 1e-9,
         "queue is spawn return to body start");
  // The same run with 50 ns missing between spawns and barrier still closes
  // (within 5 us); with 20 us missing it does not.
  s[3].t0 = 20'100;
  s[0].t1 = s[3].t1 = 30'000;
  expect(pb::analyze_runs(s).closure_fail == 1, "an uncovered gap fails the closure");

  // A request: sent 0, admitted 300, body 400..900, read 1000.
  std::vector<pb::trace::Span> r = {
      span(Kind::Request, 0, 1000, 10, 0, 9, 0),
      span(Kind::Server, 300, 900, 12, 10, 9, 0),
      span(Kind::BodyAccurate, 400, 900, 13, 0, 9, 0),
  };
  pb::Stages st = pb::analyze_requests(r);
  expect(st.complete == 1 && st.closure_fail == 0, "request stages close");
  expect(st.in_us.size() == 1 && std::fabs(st.in_us[0] - 0.3) < 1e-9, "net in = admission - send");
  expect(std::fabs(st.queue_us[0] - 0.1) < 1e-9 && std::fabs(st.out_us[0] - 0.1) < 1e-9,
         "queue and net out");
  r[0].t0 = 50'000;  // sent 50 us after the server admitted it: out of order
  expect(pb::analyze_requests(r).closure_fail == 1, "a negative stage fails the closure");
}

void test_tracer(const char* dump_path) {
  using pb::trace::Kind;
  pb::trace::arm(2, 4);
  std::uint64_t outer = 0, inner = 0;
  std::thread t([&] {
    outer = pb::trace::begin(Kind::Run, 1, 0);
    inner = pb::trace::begin(Kind::Spawn, 1, 3);
    pb::trace::end(inner);
    pb::trace::end(outer);
    pb::trace::record(Kind::Server, 5, 9, 1, 0, outer);
    for (int i = 0; i < 3; ++i) pb::trace::record(Kind::Request, 1, 2, 1, 0, 0);  // 1 fits
  });
  t.join();
  const auto spans = pb::trace::collect();
  expect(spans.size() == 4, "closed spans are collected");
  expect(pb::trace::dropped() == 2, "a full buffer drops and counts");
  bool linked = false;
  for (const auto& s : spans) linked = linked || (s.id == inner && s.parent == outer);
  expect(linked, "a span begun inside another names it as parent");
  expect(pb::trace::write_chrome(spans, dump_path, 100), "the Chrome trace is written");
  std::FILE* f = std::fopen(dump_path, "r");
  char head[64] = {};
  if (f != nullptr) {
    expect(std::fread(head, 1, sizeof head - 1, f) > 0, "the Chrome trace is readable");
    std::fclose(f);
  }
  expect(std::strstr(head, "traceEvents") != nullptr, "the dump is trace-event JSON");
}

void test_checks() {
  constexpr std::size_t w = 8, h = 6;
  std::vector<std::uint8_t> acc(w * h), app(w * h), out(w * h);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = static_cast<std::uint8_t>(i * 7);
    app[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  out = acc;
  std::memcpy(out.data() + 2 * w, app.data() + 2 * w, w);
  pb::UnitCheck c = pb::check_rows(out.data(), acc.data(), app.data(), w, h);
  expect(c.accurate == 3 && c.approx == 1 && c.wrong == 0, "rows match accurate or approximate");
  out[3 * w + 4] ^= 1;  // the deliberately wrong pixel
  c = pb::check_rows(out.data(), acc.data(), app.data(), w, h);
  expect(c.wrong == 1, "a wrong pixel fails its row");

  const std::vector<double> la = {1.0, 2.0, 3.0}, lp = {1.5, 2.5, 3.5};
  std::vector<double> lo = {1.0, 2.5, 3.0};
  expect(pb::check_leaves(lo.data(), la.data(), lp.data(), 3).wrong == 0, "leaves match");
  lo[2] = std::nan("");
  expect(pb::check_leaves(lo.data(), la.data(), lp.data(), 3).wrong == 1, "an unwritten leaf fails");
  expect(std::fabs(pb::relative_error(1.01, 1.0) - 0.01) < 1e-12, "relative error");

  using sigrt::net::Status;
  std::uint8_t payload[pb::kResponsePayloadBytes];
  pb::BodyResult res{.checksum = 42, .t0 = 1, .t1 = 2};
  pb::encode_result(payload, res);
  pb::BodyResult got;
  const auto check = [&](Status s, std::size_t bytes) {
    return pb::check_response(s, payload, bytes, 42, 43, &got);
  };
  expect(check(Status::Ok, sizeof payload) == pb::Verdict::Accurate, "accurate answer accepted");
  expect(got.t0 == 1 && got.t1 == 2, "body times decoded");
  expect(check(Status::OkApprox, sizeof payload) == pb::Verdict::Wrong,
         "an accurate answer under an approximate status is rejected");
  res.checksum = 43;
  pb::encode_result(payload, res);
  expect(check(Status::OkApprox, sizeof payload) == pb::Verdict::Approx, "approximate answer accepted");
  expect(check(Status::Ok, sizeof payload) == pb::Verdict::Wrong,
         "an approximate answer under the accurate status is rejected");
  res.checksum = 44;
  pb::encode_result(payload, res);
  expect(check(Status::Ok, sizeof payload) == pb::Verdict::Wrong, "a wrong checksum is rejected");
  expect(check(Status::Ok, 8) == pb::Verdict::Wrong, "a short payload is rejected");
  expect(check(Status::Shed, 0) == pb::Verdict::Refused, "an empty shed answer is a refusal");
  expect(check(Status::Shed, 8) == pb::Verdict::Wrong, "a shed answer with a payload is rejected");
  expect(check(Status::BadKernel, 0) == pb::Verdict::Wrong, "an error status is rejected");

  std::uint8_t tagbuf[pb::kRequestPrefixBytes];
  pb::encode_tag(tagbuf, pb::RequestTag{123456, 7, true});
  pb::RequestTag tag;
  expect(pb::decode_tag(tagbuf, sizeof tagbuf, &tag) && tag.unit == 123456 && tag.input == 7 &&
             tag.traced,
         "request tags round-trip");
  expect(!pb::decode_tag(tagbuf, 4, &tag), "a short request payload has no tag");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch-file>\n");
    return 2;
  }
  test_percentiles();
  test_picks();
  test_self_times_and_closure();
  test_tracer(argv[1]);
  test_checks();
  if (g_failures == 0) std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
