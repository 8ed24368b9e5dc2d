// The served workload: serve::Server behind net::NetServer in this process,
// driven over loopback TCP by the benchmark's own client thread.
//
//   serve-closed  closed loop.  One connection keeps kWindow requests in
//                 flight, sending a new request as each answer is read:  a
//                 seeded sequence of sobel, dct and kmeans requests
//                 (Degradable classes, deadlines 25/25/50 ms, QoS controller
//                 on, 2 workers).  The whole served path runs per request:
//                 framing, poller, decode, admission, EDF dispatch, spawn,
//                 LQH, body, flush; the controller evaluates every epoch.
//                 The window keeps the backlog below the controller's
//                 watermarks and latency far below the deadlines, so the
//                 served fast path is measured, and a change that makes the
//                 controller degrade, shed or perforate shows in the shares.
//                 Kernels take most of the worker time.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "apps/dct.hpp"
#include "apps/kmeans.hpp"
#include "apps/sobel.hpp"
#include "analysis.hpp"
#include "checks.hpp"
#include "energy/meter.hpp"
#include "net/framing.hpp"
#include "net/net_server.hpp"
#include "schedule.hpp"
#include "serve/server.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using sigrt::support::now_ns;
using trace::Kind;
namespace net = sigrt::net;
namespace serve = sigrt::serve;

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- loopback client socket ---------------------------------------------------

class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::system_error(err, std::generic_category(), "connect");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Writes all of `buf`; throws on a broken connection.
  void write_all(const std::vector<std::uint8_t>& buf) const {
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::system_error(errno, std::generic_category(), "write");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Waits at most `timeout_ns` for input; true when the socket is readable.
  [[nodiscard]] bool wait_readable(std::int64_t timeout_ns) const {
    pollfd p{fd_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    return ::ppoll(&p, 1, &ts, nullptr) > 0;
  }

  /// Reads what is available into `reader`; throws on EOF or error.
  void read_into(net::FrameReader& reader) const {
    std::uint8_t* tail = reader.writable_tail(1 << 16);
    const ssize_t n = ::read(fd_, tail, 1 << 16);
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) throw std::runtime_error("connection closed by the server");
    reader.commit(static_cast<std::size_t>(n));
  }

  /// Reads what is available, waiting at most `timeout_ms`; false on timeout.
  bool read_some(net::FrameReader& reader, int timeout_ms) const {
    if (!wait_readable(std::int64_t{timeout_ms} * 1'000'000)) return false;
    read_into(reader);
    return true;
  }

 private:
  int fd_;
};

void append_request(std::vector<std::uint8_t>& buf, std::uint32_t id,
                    std::uint32_t cls, std::uint32_t kernel, const std::uint8_t* payload,
                    std::size_t bytes) {
  net::RequestHeader h;
  h.id = id;
  h.cls = cls;
  h.kernel = kernel;
  net::append_frame(buf, h, net::kRequestHeaderBytes, payload, bytes);
}

/// Wraps a benchmark-owned computation as a wire kernel: decodes the tag,
/// times the body, records its span when the request is traced, and answers
/// with checksum + body start/end.  A payload without a tag gets an empty
/// answer, which the client counts as wrong.
template <class Compute>
net::KernelHandler make_handler(Compute compute, std::uint32_t kind, double significance) {
  net::KernelHandler h;
  h.significance = significance;
  h.fn = [compute, kind](const std::uint8_t* p, std::size_t n, bool approx,
                         std::vector<std::uint8_t>& out) {
    RequestTag tag;
    if (!decode_tag(p, n, &tag)) return;
    BodyResult res;
    res.t0 = now_ns();
    res.checksum = compute(tag.input, approx);
    res.t1 = now_ns();
    if (tag.traced) {
      trace::record(approx ? Kind::BodyApprox : Kind::BodyAccurate, res.t0, res.t1,
                    tag.unit, kind, 0);
    }
    const std::size_t base = out.size();
    out.resize(base + kResponsePayloadBytes);
    encode_result(out.data() + base, res);
  };
  return h;
}

/// Server + front door.  Shutdown order is the serve tier's contract: drain
/// the server, then stop the pollers, then destroy the front door first.
struct Served {
  std::unique_ptr<serve::Server> srv;
  std::unique_ptr<net::NetServer> net;
  std::vector<serve::ClassId> classes;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (srv) srv->close();
    if (net) net->stop();
  }
};

constexpr unsigned kKinds = 3;
constexpr unsigned kInputs = 16;
constexpr const char* kKindNames[kKinds] = {"sobel", "dct", "kmeans"};
constexpr double kDeadlineMs[kKinds] = {25.0, 25.0, 50.0};
constexpr unsigned kWorkers = 2;
/// Requests in flight on the connection (a power of two: the low bits of a
/// request id name its slot).  Two per worker: each worker has a request
/// queued behind the one it runs, so workers do not park between requests
/// and the backlog (4) stays at the controller's low watermark.
constexpr unsigned kWindow = 4;
constexpr std::uint32_t kSlotBits = 2;
static_assert(kWindow == 1u << kSlotBits);
/// Each body repeats its kernel this many times (about 0.5 ms per request
/// under the workload's own load on a 4-vCPU 2.1 GHz x86-64 host).  Against
/// that much work per request, the host's scheduling delays move the
/// latency far less than against one kernel (about 0.1 ms).
constexpr unsigned kRepeats = 5;
/// Requests answered at set-up before timing.  With 64, the first second of
/// the first server in the process ran at about half the later throughput.
constexpr unsigned kWarmupRequests = 1000;
/// Length of the seeded request sequence the client cycles through.
constexpr std::size_t kPicks = std::size_t{1} << 16;
/// Latency samples kept per segment, reserved before timing.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
/// Latency, throughput and energy are taken per window of this length and
/// reported as the median over the windows of the untraced segments: the
/// host's spare capacity changes from one second to the next, and a median
/// over thirty windows moves less with it than one over six segments.
constexpr std::int64_t kWindowNs = 1'000'000'000;
/// A traced request records its handler span while the segment runs and two
/// client spans, on one thread, after it: trace a request only while fewer
/// spans than a quarter of one thread's buffer are recorded.
constexpr std::uint64_t kRequestSpanBudget = kSpansPerThread / 4;

/// The approximate kmeans answer is one assignment pass over half the
/// points, as the approximate sobel and dct answers transform a thumbnail:
/// degrading buys several times the accurate capacity.
sigrt::apps::kmeans::Options kmeans_options(std::uint64_t seed, bool approx) {
  sigrt::apps::kmeans::Options o;
  o.points = approx ? 128 : 256;
  o.dims = 8;
  o.clusters = 4;
  o.max_iterations = approx ? 1 : 12;
  o.converge_fraction = 0.0;  // fixed iteration count: fixed cost per variant
  o.common.seed = seed;
  return o;
}

/// Seeded request inputs and their precomputed accurate/approximate answers.
struct ServeInputs {
  std::vector<sigrt::support::Image> sobel, sobel_thumb, dct, dct_thumb;
  std::vector<std::uint64_t> kmeans_seed;
  std::array<std::array<std::uint64_t, kInputs>, kKinds> acc{}, app{};

  explicit ServeInputs(std::uint64_t seed) {
    sigrt::support::Xoshiro256 rng(seed ^ 0xb0b5ull);
    for (unsigned i = 0; i < kInputs; ++i) {
      // Input sizes give the three accurate bodies about equal cost, so
      // latency has one mode, not one per request class.
      sobel.push_back(sigrt::support::synthetic_image(320, 320, rng.next()));
      sobel_thumb.push_back(sigrt::support::synthetic_image(160, 160, rng.next()));
      dct.push_back(sigrt::support::synthetic_image(72, 72, rng.next()));
      dct_thumb.push_back(sigrt::support::synthetic_image(24, 24, rng.next()));
      kmeans_seed.push_back(rng.next());
    }
    for (unsigned k = 0; k < kKinds; ++k) {
      for (unsigned i = 0; i < kInputs; ++i) {
        acc[k][i] = compute(k, i, false);
        app[k][i] = compute(k, i, true);
        if (acc[k][i] == app[k][i]) {
          throw std::logic_error("serve-closed: accurate and approximate answers coincide");
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t compute(unsigned kind, unsigned input, bool approx) const {
    namespace apps = sigrt::apps;
    switch (kind) {
      case 0: {
        const auto out = approx ? apps::sobel::reference_approx(sobel_thumb[input])
                                : apps::sobel::reference(sobel[input]);
        return fnv1a(out.data(), out.size());
      }
      case 1: {
        const auto c = apps::dct::reference(approx ? dct_thumb[input] : dct[input]);
        return fnv1a(c.data(), c.size() * sizeof(float));
      }
      default: {
        const auto s = apps::kmeans::reference(kmeans_options(kmeans_seed[input], approx));
        return fnv1a(s.centroids.data(), s.centroids.size() * sizeof(double), s.iterations);
      }
    }
  }
};

std::unique_ptr<Served> start_server(const ServeInputs& inputs) {
  auto s = std::make_unique<Served>();
  serve::ServerOptions so;
  so.runtime.workers = kWorkers;
  so.epoch_ms = 10.0;
  so.dispatcher_threads = 1;
  s->srv = std::make_unique<serve::Server>(so);
  for (unsigned k = 0; k < kKinds; ++k) {
    serve::RequestClassConfig cfg;
    cfg.name = kKindNames[k];
    cfg.criticality = serve::Criticality::Degradable;
    cfg.qos.deadline_ns = kDeadlineMs[k] * 1e6;
    cfg.qos.quality_floor = 0.05;
    cfg.qos.backlog_high = 16;
    cfg.qos.backlog_low = 4;
    cfg.max_in_flight = 256;
    // A late request is served late, not refused: a host stall shows in the
    // latency, and no request of a calm closed loop fails for it.
    cfg.shed_expired = false;
    s->classes.push_back(s->srv->register_class(cfg));
  }
  net::NetServerOptions no;
  no.pollers = 1;
  s->net = std::make_unique<net::NetServer>(*s->srv, no);
  const ServeInputs* in = &inputs;
  for (unsigned k = 0; k < kKinds; ++k) {
    s->net->register_kernel(
        k, make_handler(
               [in, k](std::uint16_t input, bool approx) {
                 // The tag comes off the wire: keep its input in range.
                 for (unsigned i = 1; i < kRepeats; ++i) (void)in->compute(k, input % kInputs, approx);
                 return in->compute(k, input % kInputs, approx);
               },
               k, 0.5));
  }
  s->net->start();
  return s;
}

/// Sends `count` requests over `sock`, kWindow at a time, and waits for
/// every answer.  Warms pools, buffers and caches before timing.
void warm_up(const Socket& sock, const Served& s, unsigned count) {
  std::vector<std::uint8_t> buf;
  std::uint8_t payload[kRequestPrefixBytes];
  net::FrameReader reader;
  unsigned sent = 0, got = 0;
  const std::int64_t give_up = now_ns() + 20'000'000'000;
  while (got < count) {
    buf.clear();
    while (sent < count && sent - got < kWindow) {
      const unsigned k = sent % kKinds;
      encode_tag(payload, RequestTag{0, static_cast<std::uint16_t>(sent % kInputs), false});
      append_request(buf, sent, s.classes[k], k, payload, sizeof payload);
      ++sent;
    }
    if (!buf.empty()) sock.write_all(buf);
    if (now_ns() > give_up) throw std::runtime_error("warm-up got no answers");
    if (!sock.read_some(reader, 100)) continue;
    net::FrameView f;
    while (reader.next_frame(f)) ++got;
  }
}

/// Runtime, server and front-door counters, for deltas over a segment.
struct ServeCounters {
  CoreCounters core;
  std::uint64_t submitted = 0, shed = 0, degraded = 0, perforated = 0, expired = 0,
                timed_out = 0;
  std::uint64_t served = 0, served_accurate = 0, served_approximate = 0;
  std::uint64_t protocol_errors = 0;
  double inversion = 0.0;  ///< mean over the classes' task groups
};

ServeCounters snapshot(const Served& s) {
  ServeCounters c;
  sigrt::Runtime& rt = s.srv->runtime();
  c.core = core_counters(rt);
  for (const serve::ClassId cls : s.classes) {
    const serve::ClassReport r = s.srv->class_report(cls);
    c.submitted += r.submitted;
    c.shed += r.shed;
    c.degraded += r.degraded;
    c.perforated += r.perforated;
    c.expired += r.expired;
    c.timed_out += r.timed_out;
    c.served += r.served();
    c.served_accurate += r.served_accurate;
    c.served_approximate += r.served_approximate;
  }
  std::size_t groups = 0;
  for (const sigrt::GroupReport& g : rt.all_group_reports()) {
    if (g.name.rfind("serve/", 0) != 0) continue;
    c.inversion += g.inversion_fraction;
    ++groups;
  }
  c.inversion = per(c.inversion, static_cast<double>(groups));
  c.protocol_errors = s.net->counters().protocol_errors;
  return c;
}

/// Counter deltas summed over the traced segments.
struct ServeDeltas {
  CoreDeltas core;
  double submitted = 0, shed = 0, degraded = 0, perforated = 0, expired = 0, timed_out = 0;
  double served = 0, served_accurate = 0, served_approximate = 0;
  double inversion = 0;  ///< summed per segment; divide by the segment count

  void add(const ServeCounters& a, const ServeCounters& b) {
    const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
    core.add(a.core, b.core);
    submitted += d(a.submitted, b.submitted);
    shed += d(a.shed, b.shed);
    degraded += d(a.degraded, b.degraded);
    perforated += d(a.perforated, b.perforated);
    expired += d(a.expired, b.expired);
    timed_out += d(a.timed_out, b.timed_out);
    served += d(a.served, b.served);
    served_accurate += d(a.served_accurate, b.served_accurate);
    served_approximate += d(a.served_approximate, b.served_approximate);
    inversion += b.inversion;
  }
};

/// What one segment of the closed loop measured.
struct Segment {
  /// A correct answer's send-to-read latency and the window it was read in
  /// (kNoWindow: read after the stop time, while collecting).
  struct Sample {
    double ms;
    std::size_t window;
  };
  static constexpr std::size_t kNoWindow = ~std::size_t{0};
  /// One window: correct answers read in it and the modeled energy spent.
  struct Window {
    std::uint64_t done = 0;
    double joules = 0.0;
  };
  std::vector<Sample> lat;
  std::vector<Window> windows;
  double window_s = 0.0;  ///< length of each window
  double seconds = 0.0;   ///< the segment's measuring time
  std::uint64_t sent = 0, accurate = 0, approx = 0, refused = 0, wrong = 0, missing = 0;
  double ratio_mean = 0.0;  ///< controller knob, mean over 10 ms samples
  bool broken = false;
  /// Traced requests' client-side times, for spans recorded after the
  /// segment (when every handler span is in).
  struct Traced {
    std::uint32_t unit, kind;
    std::int64_t sent, read, server_ns, body_end;
  };
  std::vector<Traced> traced;
};

/// Drives one connection for `seconds`: keeps kWindow requests in flight,
/// checks every answer against the precomputed answers for its input, and
/// after the stop time collects what is outstanding.  Picks continue from
/// `*next_pick`; units (request ids in spans) from `*next_unit`.  The
/// measuring time is cut into windows of kWindowNs (one window when it is
/// shorter); the meter is read at each window's edges.
Segment run_segment(const Socket& sock, const Served& s, const ServeInputs& in,
                    const std::vector<Pick>& picks, std::size_t* next_pick,
                    std::uint32_t* next_unit, double seconds, bool traced) {
  Segment out;
  out.lat.reserve(kMaxSamples);
  const auto seg_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t win_ns = std::min(kWindowNs, seg_ns);
  const auto nwin = static_cast<std::size_t>(seg_ns / win_ns);
  out.windows.assign(nwin, {});
  out.window_s = static_cast<double>(win_ns) * 1e-9;
  out.seconds = seconds;
  if (traced) out.traced.reserve(kRequestSpanBudget);
  struct Slot {
    std::uint32_t id = 0, unit = 0;
    Pick pick;
    std::int64_t sent = 0;
    bool traced = false;
  };
  std::array<Slot, kWindow> slots{};
  std::array<unsigned, kWindow> fresh{};
  unsigned nfresh = 0, inflight = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> buf;
  buf.reserve(kWindow * 64);
  std::uint8_t payload[kRequestPrefixBytes];
  net::FrameReader reader;

  const auto enqueue = [&](unsigned slot) {
    Slot& sl = slots[slot];
    sl.pick = picks[(*next_pick)++ % picks.size()];
    sl.unit = (*next_unit)++;
    sl.id = (seq++ << kSlotBits) | slot;
    sl.traced = traced && trace::recorded() < kRequestSpanBudget;
    encode_tag(payload, RequestTag{sl.unit, sl.pick.input, sl.traced});
    append_request(buf, sl.id, s.classes[sl.pick.kind], sl.pick.kind, payload, sizeof payload);
    fresh[nfresh++] = slot;
  };
  const auto flush = [&] {
    const std::int64_t t = now_ns();
    for (unsigned k = 0; k < nfresh; ++k) slots[fresh[k]].sent = t;
    sock.write_all(buf);
    buf.clear();
    out.sent += nfresh;
    inflight += nfresh;
    nfresh = 0;
  };

  // The controller's ratio knobs, sampled every 10 ms in traced segments.
  double ratio_sum = 0.0;
  std::size_t ratio_n = 0;
  const auto sample = [&] {
    for (const serve::ClassId cls : s.classes) ratio_sum += s.srv->class_report(cls).ratio;
    ratio_n += s.classes.size();
  };

  const sigrt::energy::Scope energy(s.srv->runtime().meter());
  const std::int64_t start = now_ns();
  const std::int64_t stop_at = start + seg_ns;
  const std::int64_t give_up = stop_at + 5'000'000'000;
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  std::int64_t next_sample = traced ? start : kNever;
  // Window edges: edge k starts window k; edge nwin ends the last one.
  std::size_t edges = 0;
  std::int64_t next_edge = start;
  double edge_joules = 0.0;
  const auto pass_edges = [&](std::int64_t now) {
    for (; edges <= nwin && now >= next_edge; ++edges) {
      const double j = energy.joules();
      if (edges > 0) out.windows[edges - 1].joules = j - edge_joules;
      edge_joules = j;
      next_edge = edges < nwin ? next_edge + win_ns : kNever;
    }
  };
  pass_edges(start);
  try {
    for (unsigned slot = 0; slot < kWindow; ++slot) enqueue(slot);
    flush();
    while (inflight > 0) {
      std::int64_t now = now_ns();
      if (now > give_up) break;  // the rest count as missing
      pass_edges(now);
      if (now >= next_sample) {
        sample();
        next_sample += 10'000'000;
      }
      if (!sock.wait_readable(std::min({next_sample, next_edge, give_up}) - now)) continue;
      sock.read_into(reader);
      now = now_ns();
      net::FrameView f;
      while (reader.next_frame(f)) {
        if (f.size < net::kResponseHeaderBytes) {
          ++out.wrong;  // matches no request: the one it answers goes missing
          continue;
        }
        const net::ResponseHeader h = net::ResponseHeader::decode(f.data);
        Slot& sl = slots[h.id & (kWindow - 1)];
        if (sl.id != h.id || sl.sent == 0) {
          ++out.wrong;  // an answer to no outstanding request
          continue;
        }
        BodyResult res;
        const Verdict v = check_response(h.status, f.data + net::kResponseHeaderBytes,
                                         f.size - net::kResponseHeaderBytes,
                                         in.acc[sl.pick.kind][sl.pick.input],
                                         in.app[sl.pick.kind][sl.pick.input], &res);
        --inflight;
        switch (v) {
          case Verdict::Accurate: ++out.accurate; break;
          case Verdict::Approx: ++out.approx; break;
          case Verdict::Refused: ++out.refused; break;
          case Verdict::Wrong: ++out.wrong; break;
        }
        if (v == Verdict::Accurate || v == Verdict::Approx) {
          auto w = static_cast<std::size_t>((now - start) / win_ns);
          if (now >= stop_at || w >= nwin) w = Segment::kNoWindow;
          if (out.lat.size() < kMaxSamples) out.lat.push_back({ms(now - sl.sent), w});
          if (w != Segment::kNoWindow) ++out.windows[w].done;
          if (sl.traced) {
            out.traced.push_back({sl.unit, sl.pick.kind, sl.sent, now, h.server_ns, res.t1});
          }
        }
        sl.sent = 0;
        if (now < stop_at) enqueue(static_cast<unsigned>(&sl - slots.data()));
      }
      if (nfresh > 0) flush();
    }
  } catch (const std::exception&) {
    out.broken = true;
  }
  pass_edges(now_ns());
  out.missing = inflight;
  out.ratio_mean = per(ratio_sum, static_cast<double>(ratio_n));
  return out;
}

}  // namespace

Result run_serve_closed(const Options& o) {
  Result r;
  std::vector<double> setups;
  std::vector<Segment> segs;
  std::vector<bool> seg_traced;
  std::vector<trace::Span> spans;
  ServeDeltas d;
  std::uint64_t protocol_errors = 0;
  double traced_segments = 0.0;
  std::size_t next_pick = 0;
  std::uint32_t next_unit = 1;
  std::string meter_name;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool traced = o.trace && seg >= kSegments / 2;
    const std::int64_t t0 = now_ns();
    const auto inputs = std::make_unique<ServeInputs>(o.seed);
    const std::vector<Pick> picks = make_picks(o.seed, kPicks, kKinds, kInputs);
    std::unique_ptr<Served> served = start_server(*inputs);
    auto sock = std::make_unique<Socket>(served->net->port());
    warm_up(*sock, *served, kWarmupRequests);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (seg == 0) {
      sigrt::Runtime& rt = served->srv->runtime();
      meter_name = rt.meter().name();
      r.stamp.emplace_back("workers", std::to_string(rt.config().workers));
      r.stamp.emplace_back("energy", meter_name);
      r.stamp.emplace_back("policy", rt.policy_name());
    }
    if (traced) trace::arm(kTraceThreads, kSpansPerThread);
    const ServeCounters c0 = snapshot(*served);
    segs.push_back(run_segment(*sock, *served, *inputs, picks, &next_pick, &next_unit,
                               o.seconds / kSegments, traced));
    seg_traced.push_back(traced);
    const ServeCounters c1 = snapshot(*served);
    protocol_errors += c1.protocol_errors - c0.protocol_errors;
    sock.reset();
    served.reset();  // drains the server: every handler span is recorded
    if (!traced) continue;
    d.add(c0, c1);
    traced_segments += 1.0;
    for (const Segment::Traced& t : segs.back().traced) {
      const std::uint64_t req = trace::record(Kind::Request, t.sent, t.read, t.unit, t.kind, 0);
      trace::record(Kind::Server, t.body_end - t.server_ns, t.body_end, t.unit, t.kind, req);
    }
    const std::vector<trace::Span> seg_spans = trace::collect();
    spans.insert(spans.end(), seg_spans.begin(), seg_spans.end());
  }
  const double rss = peak_rss_mb();  // before the analysis below allocates

  // End-to-end metrics: untraced segments only; latency, throughput and
  // energy are the median over their windows.
  std::vector<double> lat, win_p50, win_p90, win_rate, win_mj, traced_p50;
  std::size_t min_beyond = std::numeric_limits<std::size_t>::max();
  std::uint64_t att = 0, acc = 0, approx = 0, refused = 0, wrong = 0, missing = 0;
  bool broken = false;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Segment& sg = segs[i];
    r.attempted += sg.sent;
    r.failed += sg.refused + sg.wrong + sg.missing;
    broken = broken || sg.broken;
    std::vector<std::vector<double>> by_window(sg.windows.size());
    for (const Segment::Sample& x : sg.lat) {
      if (x.window != Segment::kNoWindow) by_window[x.window].push_back(x.ms);
    }
    if (seg_traced[i]) {
      for (const std::vector<double>& v : by_window) traced_p50.push_back(percentile(v, 0.5));
      continue;
    }
    att += sg.sent;
    acc += sg.accurate;
    approx += sg.approx;
    refused += sg.refused;
    wrong += sg.wrong;
    missing += sg.missing;
    for (const Segment::Sample& x : sg.lat) lat.push_back(x.ms);
    for (std::size_t w = 0; w < sg.windows.size(); ++w) {
      const double done = static_cast<double>(sg.windows[w].done);
      win_p50.push_back(percentile(by_window[w], 0.5));
      win_p90.push_back(percentile(by_window[w], 0.9));
      win_rate.push_back(done / sg.window_s);
      if (done > 0) win_mj.push_back(sg.windows[w].joules * 1e3 / done);
      min_beyond = std::min(min_beyond, samples_beyond(by_window[w].size(), 0.9));
    }
  }
  const double p50 = median(win_p50), p90 = median(win_p90), p99 = percentile(lat, 0.99);
  const double setup = median(setups);
  r.e2e = {
      {"latency_ms_p50", p50, "ms"},
      {"throughput_per_s", median(win_rate), "1/s"},
      {"energy_mj", median(win_mj), "mJ"},
      {"accurate_share", per(static_cast<double>(acc), static_cast<double>(att)), "ratio"},
      {"success_share", per(static_cast<double>(acc + approx), static_cast<double>(att)), "ratio"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  r.note("serve-closed: closed loop, 1 connection x %u in flight, %llu requests in %zu windows of %.3g s"
         " (untraced segments), %u workers",
         kWindow, static_cast<unsigned long long>(att), win_p50.size(), segs[0].window_s, kWorkers);
  r.note("  latency_ms_p50  %10.4f ms   send to response read (n=%zu), median over windows (%s)",
         p50, lat.size(), join(win_p50).c_str());
  r.note("  latency_ms_p90  %10.4f ms   median over windows; each rests on >= %zu samples beyond",
         p90, min_beyond);
  r.note("  latency_ms_p99  %10.4f ms   windows pooled (%zu samples beyond)", p99,
         samples_beyond(lat.size(), 0.99));
  r.note("  throughput_rps  %10.1f req/s correct answers, median over windows (%s)",
         median(win_rate), join(win_rate).c_str());
  r.note("  energy_mj       %10.4f mJ   per request, median over windows, meter backend %s",
         median(win_mj), meter_name.c_str());
  r.note("  accurate_share  %10.4f ratio (%llu accurate, %llu approximate of %llu)",
         per(static_cast<double>(acc), static_cast<double>(att)),
         static_cast<unsigned long long>(acc), static_cast<unsigned long long>(approx),
         static_cast<unsigned long long>(att));
  r.note("  failed_share    %10.4f ratio (refused %llu, wrong %llu, missing %llu)",
         per(static_cast<double>(refused + wrong + missing), static_cast<double>(att)),
         static_cast<unsigned long long>(refused), static_cast<unsigned long long>(wrong),
         static_cast<unsigned long long>(missing));
  r.note("  setup_s         %10.4f s    median of %zu set-ups (min %.4f, max %.4f)", setup,
         setups.size(), *std::min_element(setups.begin(), setups.end()),
         *std::max_element(setups.begin(), setups.end()));
  r.note("  peak_rss_mb     %10.2f MB", rss);
  r.note("  net.protocol_errors %6llu", static_cast<unsigned long long>(protocol_errors));
  if (broken) {
    r.valid = false;
    r.note("INVALID: the connection broke");
  }
  if (protocol_errors > 0) {
    r.valid = false;
    r.note("INVALID: the front door counted protocol errors");
  }
  if (!o.trace) return r;

  // Per-layer metrics: spans and counter deltas of the traced segments.
  const Stages st = analyze_requests(spans);
  double traced_s = 0.0, ratio_mean = 0.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (!seg_traced[i]) continue;
    traced_s += segs[i].seconds;
    ratio_mean += segs[i].ratio_mean;
  }
  ratio_mean = per(ratio_mean, traced_segments);
  const double wall = kWorkers * traced_s;
  r.layer = layer_metrics({
      .submit_us = median(st.in_us),
      .queue_us_p50 = percentile(st.queue_us, 0.5),
      .queue_us_p99 = percentile(st.queue_us, 0.99),
      .body_accurate_us = median(st.body_acc_us),
      .complete_us = median(st.out_us),
      .busy_us_per_unit = per(d.core.busy_s * 1e6, d.served),
      .body_share = per(st.body_s, wall),
      .help_self_share = per(self_seconds(spans, Kind::Help), wall),
      .steals_per_ktask = per(1e3 * d.core.steals, d.core.spawned),
      .inline_spawns_per_ktask = per(1e3 * d.core.inline_spawns, d.core.spawned),
      .handoffs_per_kunit = per(1e3 * d.core.handoffs, d.served),
      .ratio_diff = std::fabs(ratio_mean - per(d.served_accurate, d.served)),
      .inversion = per(d.inversion, traced_segments),
      .approx_share = per(d.served_approximate, d.submitted),
      .dropped_share = per(d.shed + d.perforated + d.expired + d.timed_out, d.submitted),
      .dep_edges_per_task = per(d.core.dep_edges, d.core.spawned),
  });
  r.note("traced: %zu requests with every span (%llu spans dropped in the last segment)",
         st.complete, static_cast<unsigned long long>(trace::dropped()));
  r.note("  net.in_us              %10.3f us  median send -> admission", median(st.in_us));
  r.note("  serve.queue_us_p50     %10.3f us  admission -> body start", percentile(st.queue_us, 0.5));
  r.note("  serve.queue_us_p99     %10.3f us", percentile(st.queue_us, 0.99));
  r.note("  apps.accurate_body_us  %10.3f us  (n=%zu)", median(st.body_acc_us), st.body_acc_us.size());
  r.note("  apps.approx_body_us    %10.3f us  (n=%zu)", median(st.body_app_us), st.body_app_us.size());
  r.note("  net.out_us             %10.3f us  median body end -> response read", median(st.out_us));
  r.note("  serve.busy_us_per_req  %10.3f us", per(d.core.busy_s * 1e6, d.served));
  r.note("  serve.shed_share %.4f, serve.degraded_share %.4f, serve.perforated_share %.4f, "
         "serve.expired_share %.4f (of %.0f submitted)",
         per(d.shed, d.submitted), per(d.degraded, d.submitted), per(d.perforated, d.submitted),
         per(d.expired, d.submitted), d.submitted);
  r.note("  serve.ratio_mean       %10.4f     controller knob, mean over 10 ms samples", ratio_mean);
  r.note("  closure: net.in + serve.queue + body + net.out = request, no stage below -20 us, "
         "on %zu of %zu requests (needs 99.9%%)", st.complete - st.closure_fail, st.complete);
  const double tp50 = median(traced_p50);
  r.note("  tracing overhead: latency_ms_p50 %.4f traced vs %.4f untraced (%+.1f%%), "
         "each the median over its windows", tp50, p50, 100.0 * per(tp50 - p50, p50));
  if (!closes(st.complete, st.closure_fail)) r.valid = false;
  if (!o.trace_out.empty() && !trace::write_chrome(spans, o.trace_out, kChromeEvents)) {
    r.note("could not write %s", o.trace_out.c_str());
  }
  return r;
}

}  // namespace pb
