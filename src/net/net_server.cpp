#include "net/net_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/topology.hpp"
#include "fault/fault.hpp"
#include "net/framing.hpp"
#include "support/timer.hpp"

namespace sigrt::net {

namespace {

// epoll_event.data tags for the poller's two non-connection fds.  Real
// Conn* values are heap pointers, never 1 or 2.
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kListenTag = 2;

constexpr std::size_t kReadChunk = 16 * 1024;

// listen(2) backlog of each poller's listener.
constexpr int kListenBacklog = 128;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

/// One accepted connection.  All plain fields (fd, reader, wr_*, want_out)
/// are owned by the connection's poller thread; producers (workers,
/// dispatchers) touch only the atomics: outq / out_armed / closed / refs.
struct NetServer::Conn {
  int fd = -1;
  Poller* poller = nullptr;
  FrameReader reader;  ///< caps frames at kMaxFrameBytes

  /// Outbound MPSC (Treiber through NetRequest::next): any thread pushes a
  /// finished response; the poller consumes.  seq_cst on push/exchange and
  /// on out_armed pairs with handle_writable's release-recheck so a push
  /// racing the poller's disarm is never stranded.
  std::atomic<NetRequest*> outq{nullptr};
  NetRequest* wr_fifo = nullptr;  ///< poller-local: decoded FIFO of outq
  NetRequest* wr_cur = nullptr;   ///< poller-local: response being written
  std::atomic<bool> out_armed{false};
  bool want_out = false;  ///< EPOLLOUT currently in the epoll mask

  std::atomic<bool> closed{false};
  std::atomic<int> refs{0};
  Conn* ready_next = nullptr;  ///< ready-list link (poller MPSC)

  /// Bytes queued in outq + wr_fifo + wr_cur and not yet written.  Producers
  /// add BEFORE publishing into outq (so the flusher's decrement can never
  /// pass the increment); release_request subtracts.  At
  /// NetServerOptions::max_outq_bytes the pusher flags slow_kill and the
  /// owning poller closes the connection (slow-consumer backpressure).
  std::atomic<std::size_t> outq_bytes{0};
  std::atomic<bool> slow_kill{false};

  std::uint64_t serial = 0;  ///< accept-order identity: fault-stream key
  std::uint64_t tx_ops = 0;  ///< poller-local send() counter (fault attempt)
  std::atomic<std::int64_t> last_activity_ns{0};  ///< idle-reaper clock
};

/// Pooled per-request state: request payload in, framed response out.  The
/// two vectors keep their high-water capacity across reuses, so the
/// steady-state request path allocates nothing here.
struct NetServer::NetRequest {
  NetServer* srv = nullptr;
  Conn* conn = nullptr;
  const KernelHandler* handler = nullptr;
  std::uint32_t id = 0;
  std::int64_t accepted_ns = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> out;  ///< full response frame (len + hdr + body)
  std::size_t out_off = 0;
  NetRequest* next = nullptr;  ///< outq chain or pool freelist, never both

  /// Single-responder token: finish() claims it before building/pushing the
  /// response; the serve watchdog's on_timeout claims it before answering
  /// through a fresh node.  The loser discards — exactly one response per
  /// request id ever reaches the wire, and a stuck body can never scribble
  /// into a buffer the watchdog already framed.
  std::atomic<bool> claimed{false};
  /// Node references (see unpin_request): 1 for the response path, +1 when
  /// a watchdog timeout closure also holds the node.
  std::atomic<int> pins{1};
  std::size_t frame_bytes = 0;  ///< outq_bytes share while queued
  bool in_outq = false;         ///< whether frame_bytes was charged
};

struct NetServer::Poller {
  int epfd = -1;
  int evfd = -1;
  int listen_fd = -1;
  std::atomic<Conn*> ready{nullptr};  ///< conns with newly armed output
  std::int64_t last_idle_sweep_ns = 0;  ///< poller-local reaper throttle
  std::thread thread;
};

NetServer::NetServer(serve::Server& server, NetServerOptions options)
    : server_(server), options_(std::move(options)) {
  for (auto& k : kernels_) k.store(nullptr, std::memory_order_relaxed);
  if (options_.pollers == 0) {
    // Auto: one poller per LLC group — single-LLC boxes keep the cheap
    // one-epoll configuration, multi-CCX/socket machines shard I/O.
    options_.pollers = topo::system_topology().recommended_pollers();
  }
}

NetServer::~NetServer() { stop(); }

void NetServer::register_kernel(std::uint32_t kernel, KernelHandler handler) {
  if (kernel >= kMaxKernels) {
    throw std::out_of_range("net::NetServer: kernel id out of range");
  }
  auto owned = std::make_unique<KernelHandler>(std::move(handler));
  KernelHandler* ptr = owned.get();
  {
    support::SpinLockGuard lock(kernel_lock_);
    owned_kernels_.push_back(std::move(owned));
  }
  kernels_[kernel].store(ptr, std::memory_order_release);
}

void NetServer::start() {
  if (started_) throw std::logic_error("net::NetServer: already started");
  if (server_.runtime().config().workers == 0) {
    // Inline runtimes execute spawn() on the calling thread — here, the
    // poller, violating the pollers-never-execute contract.
    throw std::logic_error("net::NetServer: serve::Server needs workers >= 1");
  }

  pollers_.reserve(options_.pollers);
  try {
    for (unsigned i = 0; i < options_.pollers; ++i) {
      auto p = std::make_unique<Poller>();

      // One SO_REUSEPORT listener per poller: the kernel spreads incoming
      // connections across them, and each connection then lives entirely
      // on the poller that accepted it.
      p->listen_fd =
          ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (p->listen_fd < 0) throw_errno("socket");
      int one = 1;
      ::setsockopt(p->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      if (::setsockopt(p->listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                       sizeof one) != 0) {
        throw_errno("setsockopt(SO_REUSEPORT)");
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
      // First listener may bind port 0 (ephemeral); the rest must join the
      // port the kernel picked.
      addr.sin_port = htons(i == 0 ? options_.port : port_);
      if (::bind(p->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) != 0) {
        throw_errno("bind");
      }
      if (::listen(p->listen_fd, kListenBacklog) != 0) {
        throw_errno("listen");
      }
      if (i == 0) {
        socklen_t len = sizeof addr;
        if (::getsockname(p->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len) != 0) {
          throw_errno("getsockname");
        }
        port_ = ntohs(addr.sin_port);
      }

      p->epfd = ::epoll_create1(EPOLL_CLOEXEC);
      if (p->epfd < 0) throw_errno("epoll_create1");
      p->evfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (p->evfd < 0) throw_errno("eventfd");

      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kWakeTag;
      if (::epoll_ctl(p->epfd, EPOLL_CTL_ADD, p->evfd, &ev) != 0) {
        throw_errno("epoll_ctl(eventfd)");
      }
      ev.data.u64 = kListenTag;
      if (::epoll_ctl(p->epfd, EPOLL_CTL_ADD, p->listen_fd, &ev) != 0) {
        throw_errno("epoll_ctl(listener)");
      }
      pollers_.push_back(std::move(p));
    }
    for (unsigned i = 0; i < options_.pollers; ++i) {
      Poller& p = *pollers_[i];
      p.thread = std::thread([this, &p, i] { poller_loop(p, i); });
    }
  } catch (...) {
    stopping_.store(true, std::memory_order_release);
    for (auto& p : pollers_) {
      if (p->thread.joinable()) {
        const std::uint64_t tick = 1;
        [[maybe_unused]] const auto n = ::write(p->evfd, &tick, sizeof tick);
        p->thread.join();
      }
      if (p->evfd >= 0) ::close(p->evfd);
      if (p->epfd >= 0) ::close(p->epfd);
      if (p->listen_fd >= 0) ::close(p->listen_fd);
    }
    pollers_.clear();
    stopping_.store(false, std::memory_order_release);
    throw;
  }
  started_ = true;
}

void NetServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  for (auto& p : pollers_) {
    const std::uint64_t tick = 1;
    [[maybe_unused]] const auto n = ::write(p->evfd, &tick, sizeof tick);
  }
  for (auto& p : pollers_) {
    if (p->thread.joinable()) p->thread.join();
  }

  // Single-threaded from here.  The serve tier is closed per the shutdown
  // contract, so no completion will touch a connection again; close and
  // release whatever survived the pollers.
  std::vector<Conn*> rest;
  {
    support::SpinLockGuard lock(conns_lock_);
    rest.swap(conns_);
  }
  for (Conn* c : rest) {
    close_conn(c);
    conn_unref(c);  // the registry reference close_conn could not find
  }
  for (auto& p : pollers_) {
    ::close(p->evfd);
    ::close(p->epfd);
    ::close(p->listen_fd);
  }

  // Every request has been finished or reaped above, so the pool freelist
  // now owns all surviving nodes; free them (the freelist is only ever
  // trimmed here — steady state recycles without deleting).
  NetRequest* r = request_pool_;
  request_pool_ = nullptr;
  while (r != nullptr) {
    NetRequest* next = r->next;
    delete r;
    r = next;
  }
}

NetServer::Counters NetServer::counters() const noexcept {
  Counters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.closed = closed_count_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.slow_closed = slow_closed_.load(std::memory_order_relaxed);
  c.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// Request pool / connection refcounts

NetServer::NetRequest* NetServer::acquire_request() {
  {
    support::SpinLockGuard lock(pool_lock_);
    if (NetRequest* r = request_pool_) {
      request_pool_ = r->next;
      r->next = nullptr;
      return r;
    }
  }
  return new NetRequest;
}

void NetServer::release_request(NetRequest* r) {
  if (r->in_outq && r->conn != nullptr) {
    r->conn->outq_bytes.fetch_sub(r->frame_bytes, std::memory_order_relaxed);
  }
  r->in_outq = false;
  r->frame_bytes = 0;
  unpin_request(r);
}

void NetServer::unpin_request(NetRequest* r) {
  // Fields stay intact until the LAST pin drops: a watchdog closure losing
  // the claim race still reads conn/id from a live node.
  if (r->pins.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  Conn* c = r->conn;
  r->claimed.store(false, std::memory_order_relaxed);
  r->conn = nullptr;
  r->handler = nullptr;
  r->payload.clear();
  r->out.clear();
  r->out_off = 0;
  {
    support::SpinLockGuard lock(pool_lock_);
    r->next = request_pool_;
    request_pool_ = r;
  }
  if (c != nullptr) conn_unref(c);
}

void NetServer::conn_ref(Conn* c) noexcept {
  c->refs.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::conn_unref(Conn* c) noexcept {
  if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete c;
}

void NetServer::reap_outq(Conn* c) noexcept {
  NetRequest* chain = c->outq.exchange(nullptr, std::memory_order_seq_cst);
  while (chain != nullptr) {
    NetRequest* next = chain->next;
    release_request(chain);
    chain = next;
  }
}

void NetServer::close_conn(Conn* c) noexcept {
  if (c->closed.exchange(true, std::memory_order_seq_cst)) return;
  closed_count_.fetch_add(1, std::memory_order_relaxed);
  if (c->fd >= 0) {
    if (c->poller != nullptr && c->poller->epfd >= 0) {
      ::epoll_ctl(c->poller->epfd, EPOLL_CTL_DEL, c->fd, nullptr);
    }
    ::close(c->fd);
    c->fd = -1;
  }
  if (c->wr_cur != nullptr) {
    release_request(c->wr_cur);
    c->wr_cur = nullptr;
  }
  while (c->wr_fifo != nullptr) {
    NetRequest* next = c->wr_fifo->next;
    release_request(c->wr_fifo);
    c->wr_fifo = next;
  }
  reap_outq(c);
  bool in_registry = false;
  {
    support::SpinLockGuard lock(conns_lock_);
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (*it == c) {
        conns_.erase(it);
        in_registry = true;
        break;
      }
    }
  }
  if (in_registry) conn_unref(c);  // registry reference
  conn_unref(c);                   // poller/epoll reference
}

// ---------------------------------------------------------------------------
// Poller side

void NetServer::poller_loop(Poller& p, unsigned index) {
  if (options_.thread_start_hook) options_.thread_start_hook("poller", index);
  epoll_event evs[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    // 100 ms timeout backstop: shutdown and wakes normally arrive via the
    // eventfd, so the timeout only bounds how long a lost edge could stall.
    const int n = ::epoll_wait(p.epfd, evs, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& e = evs[i];
      if (e.data.u64 == kWakeTag) {
        std::uint64_t drained;
        while (::read(p.evfd, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      if (e.data.u64 == kListenTag) {
        handle_accept(p);
        continue;
      }
      Conn* c = static_cast<Conn*>(e.data.ptr);
      conn_ref(c);  // pin across handling: close_conn may drop its refs
      if ((e.events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(c);
      } else {
        if ((e.events & EPOLLIN) != 0) handle_readable(c);
        if ((e.events & EPOLLOUT) != 0 &&
            !c->closed.load(std::memory_order_acquire)) {
          handle_writable(c);
        }
      }
      conn_unref(c);
    }
    drain_ready(p);
    if (options_.idle_timeout_ms > 0) idle_sweep(p);
  }
  // Final sweep: flush responses that landed between the stop flag and the
  // last wake, best-effort.
  drain_ready(p);
}

void NetServer::idle_sweep(Poller& p) {
  // Rides the epoll loop: at most one scan per half-timeout, so an idle
  // server does two cheap registry walks per timeout period and a busy one
  // adds no per-event work.
  const std::int64_t now = support::now_ns();
  const std::int64_t budget =
      static_cast<std::int64_t>(options_.idle_timeout_ms) * 1'000'000;
  const std::int64_t stride = std::max<std::int64_t>(budget / 2, 1'000'000);
  if (now - p.last_idle_sweep_ns < stride) return;
  p.last_idle_sweep_ns = now;

  // Collect under the lock, close outside it: close_conn retakes
  // conns_lock_ to deregister.  Only this poller's connections — close
  // touches epoll state and the poller-local write fields.
  std::vector<Conn*> victims;
  {
    support::SpinLockGuard lock(conns_lock_);
    for (Conn* c : conns_) {
      if (c->poller != &p) continue;
      if (c->closed.load(std::memory_order_acquire)) continue;
      if (now - c->last_activity_ns.load(std::memory_order_relaxed) < budget) {
        continue;
      }
      // Not idle if anything is queued outbound or requests still pin the
      // connection (refs: epoll + registry = 2 at rest) — their completions
      // count as activity.
      if (c->outq.load(std::memory_order_acquire) != nullptr ||
          c->wr_cur != nullptr || c->wr_fifo != nullptr) {
        continue;
      }
      if (c->refs.load(std::memory_order_acquire) > 2) continue;
      conn_ref(c);
      victims.push_back(c);
    }
  }
  for (Conn* c : victims) {
    if (!c->closed.load(std::memory_order_acquire)) {
      idle_closed_.fetch_add(1, std::memory_order_relaxed);
      close_conn(c);
    }
    conn_unref(c);
  }
}

void NetServer::drain_ready(Poller& p) {
  Conn* chain = p.ready.exchange(nullptr, std::memory_order_seq_cst);
  while (chain != nullptr) {
    Conn* next = chain->ready_next;
    if (chain->closed.load(std::memory_order_acquire)) {
      reap_outq(chain);
    } else {
      handle_writable(chain);
    }
    conn_unref(chain);  // ready-list reference
    chain = next;
  }
}

void NetServer::handle_accept(Poller& p) {
  for (;;) {
    const int fd =
        ::accept4(p.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or transient (EMFILE/ECONNABORTED): drop
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto* c = new Conn;
    c->fd = fd;
    c->poller = &p;
    c->serial = conn_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
    c->last_activity_ns.store(support::now_ns(), std::memory_order_relaxed);
    c->refs.store(2, std::memory_order_relaxed);  // epoll + registry
    {
      support::SpinLockGuard lock(conns_lock_);
      conns_.push_back(c);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    if (::epoll_ctl(p.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close_conn(c);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::handle_readable(Conn* c) {
  if (c->closed.load(std::memory_order_acquire)) return;
  for (;;) {
    std::uint8_t* tail = c->reader.writable_tail(kReadChunk);
    const ssize_t n = ::read(c->fd, tail, kReadChunk);
    if (n > 0) {
      c->last_activity_ns.store(support::now_ns(), std::memory_order_relaxed);
      c->reader.commit(static_cast<std::size_t>(n));
      FrameView f;
      try {
        while (c->reader.next_frame(f)) submit_frame(c, f.data, f.size);
      } catch (const std::length_error&) {
        // Oversized length prefix: the stream is unrecoverable (we cannot
        // find the next frame boundary) — close.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        close_conn(c);
        return;
      }
      if (c->closed.load(std::memory_order_acquire)) return;
      if (static_cast<std::size_t>(n) < kReadChunk) return;  // drained
      continue;
    }
    if (n == 0) {
      close_conn(c);  // orderly EOF
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(c);
    return;
  }
}

/// Writes until the outbound state is empty (true) or the socket blocks
/// (false).  On a socket error the connection is closed and true returned —
/// there is nothing left to write.
bool NetServer::write_some(Conn* c) {
  for (;;) {
    if (c->wr_cur == nullptr) {
      if (c->wr_fifo == nullptr) {
        // Take the whole producer chain and reverse it to completion order.
        NetRequest* chain =
            c->outq.exchange(nullptr, std::memory_order_seq_cst);
        NetRequest* fifo = nullptr;
        while (chain != nullptr) {
          NetRequest* next = chain->next;
          chain->next = fifo;
          fifo = chain;
          chain = next;
        }
        c->wr_fifo = fifo;
      }
      if (c->wr_fifo == nullptr) return true;
      c->wr_cur = c->wr_fifo;
      c->wr_fifo = c->wr_fifo->next;
      c->wr_cur->next = nullptr;
    }
    NetRequest* r = c->wr_cur;
    while (r->out_off < r->out.size()) {
      std::size_t want = r->out.size() - r->out_off;
      if (fault::armed()) {
        // Connection-level chaos, keyed by accept order + send() ordinal so
        // a fixed plan replays the same storm against the same connection
        // shape.  ConnReset cuts the wire with a real RST (SO_LINGER 0);
        // ConnShortWrite truncates one send to a single byte, exercising
        // the partial-write resume path.
        if (fault::should_fire(fault::Site::ConnReset, c->serial,
                               c->tx_ops++)) {
          struct linger lg {
            1, 0
          };
          ::setsockopt(c->fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
          close_conn(c);
          return true;
        }
        if (fault::should_fire(fault::Site::ConnShortWrite, c->serial,
                               c->tx_ops++)) {
          want = 1;
        }
      }
      const ssize_t n =
          ::send(c->fd, r->out.data() + r->out_off, want, MSG_NOSIGNAL);
      if (n > 0) {
        c->last_activity_ns.store(support::now_ns(),
                                  std::memory_order_relaxed);
        r->out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n < 0 && errno == EINTR) continue;
      close_conn(c);  // EPIPE/ECONNRESET: peer is gone, responses reaped
      return true;
    }
    responses_.fetch_add(1, std::memory_order_relaxed);
    c->wr_cur = nullptr;
    release_request(r);
  }
}

void NetServer::handle_writable(Conn* c) {
  // Invariant: this poller owns the flush while out_armed is true.  The
  // disarm-recheck-rearm tail closes the race with a producer that pushed
  // after our final outq drain but read out_armed == true (and therefore
  // did not notify): either we see its push on the recheck, or its
  // exchange(true) happens after our disarm and IT notifies.  All four
  // operations are seq_cst so the argument holds in the SC total order.
  for (;;) {
    if (c->slow_kill.load(std::memory_order_acquire)) {
      // The outq byte cap tripped: the peer is not reading fast enough for
      // the responses it asked for.  Close orderly — queued responses are
      // reaped, in-flight ones land on the closed shell.
      slow_closed_.fetch_add(1, std::memory_order_relaxed);
      close_conn(c);
      return;
    }
    const bool drained = write_some(c);
    if (c->closed.load(std::memory_order_acquire)) return;
    if (!drained) {
      if (!c->want_out) {
        c->want_out = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.ptr = c;
        ::epoll_ctl(c->poller->epfd, EPOLL_CTL_MOD, c->fd, &ev);
      }
      return;  // keep ownership; EPOLLOUT resumes the flush
    }
    if (c->want_out) {
      c->want_out = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = c;
      ::epoll_ctl(c->poller->epfd, EPOLL_CTL_MOD, c->fd, &ev);
    }
    c->out_armed.store(false, std::memory_order_seq_cst);
    if (c->outq.load(std::memory_order_seq_cst) == nullptr) return;
    if (c->out_armed.exchange(true, std::memory_order_seq_cst)) return;
  }
}

// ---------------------------------------------------------------------------
// Request path (poller decodes; workers execute; any thread completes)

void NetServer::submit_frame(Conn* conn, const std::uint8_t* body,
                             std::size_t bytes) {
  if (bytes < kRequestHeaderBytes) {
    respond_error(conn, bytes >= 4 ? get_u32(body) : 0, Status::BadFrame);
    return;
  }
  const RequestHeader h = RequestHeader::decode(body);
  if (h.reserved != 0) {
    respond_error(conn, h.id, Status::BadFrame);
    return;
  }
  if (h.cls >= server_.class_count()) {
    respond_error(conn, h.id, Status::BadClass);
    return;
  }
  if (h.tenant >= server_.tenant_count()) {
    respond_error(conn, h.id, Status::BadTenant);
    return;
  }
  const KernelHandler* handler =
      h.kernel < kMaxKernels ? kernels_[h.kernel].load(std::memory_order_acquire)
                             : nullptr;
  if (handler == nullptr || !handler->fn) {
    respond_error(conn, h.id, Status::BadKernel);
    return;
  }

  const std::int64_t watchdog_ns = server_.class_watchdog_ns(h.cls);
  NetRequest* r = start_request(conn, h.id, watchdog_ns > 0 ? 2 : 1);
  r->handler = handler;
  r->payload.assign(body + kRequestHeaderBytes, body + bytes);
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Single-pointer captures stay inside std::function's small-buffer
  // storage (16 B in libstdc++/libc++), so building the Job allocates
  // nothing.
  serve::Job job;
  job.accurate = [r] { run_body(r, /*approximate=*/false); };
  job.approximate = [r] { run_body(r, /*approximate=*/true); };
  job.on_drop = [r] { r->srv->finish(r, Status::Shed); };
  job.on_expire = [r] { r->srv->finish(r, Status::Expired); };
  job.significance = handler->significance;
  job.deadline_ns = h.deadline_ns;
  if (watchdog_ns > 0) {
    // The timeout closure races the running body for the node, so it holds
    // the second pin, dropped when the serve tier destroys the Job.  The
    // shared_ptr guard is the one allocation watchdog classes pay per
    // request; non-watchdog classes keep the zero-alloc steady state.
    struct Unpin {
      NetServer* srv;
      NetRequest* req;
      ~Unpin() { srv->unpin_request(req); }
    };
    auto guard = std::shared_ptr<Unpin>(new Unpin{this, r});
    job.on_timeout = [r, guard] {
      // Claim before touching anything: if the body already responded, the
      // timeout is a no-op; if we win, the body's late result is discarded
      // and the client gets a Timeout frame through a fresh node (the body
      // may still be scribbling into r->out).  server_ns stays 0: the
      // fresh node never saw the request arrive.
      if (!r->claimed.exchange(true, std::memory_order_acq_rel)) {
        NetServer* srv = r->srv;
        srv->push_response(srv->start_request(r->conn, r->id, 1),
                           Status::Timeout, 0);
      }
    };
  }

  const serve::Admission verdict =
      server_.submit(h.cls, h.tenant, std::move(job));
  if (verdict == serve::Admission::Shed) finish(r, Status::Shed);
}

void NetServer::respond_error(Conn* conn, std::uint32_t id, Status status) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  finish(start_request(conn, id, 1), status);
}

NetServer::NetRequest* NetServer::start_request(Conn* conn, std::uint32_t id,
                                                int pins) {
  NetRequest* r = acquire_request();
  r->srv = this;
  r->conn = conn;
  r->handler = nullptr;
  r->id = id;
  r->accepted_ns = support::now_ns();
  r->claimed.store(false, std::memory_order_relaxed);
  r->pins.store(pins, std::memory_order_relaxed);
  conn_ref(conn);  // the request pins the connection until it recycles
  return r;
}

void NetServer::run_body(NetRequest* r, bool approximate) {
  // Worker thread.  Reserve the frame prefix, let the kernel append its
  // payload, then finish() patches length and header in place.
  r->out.clear();
  r->out.resize(kLenPrefixBytes + kResponseHeaderBytes);
  r->handler->fn(r->payload.data(), r->payload.size(), approximate, r->out);
  r->srv->finish(r, approximate ? Status::OkApprox : Status::Ok);
}

void NetServer::finish(NetRequest* r, Status status) {
  // Single-responder: if the serve watchdog already answered this request
  // through a fresh node, the late body result is discarded — never two
  // frames for one id, and never a push racing the watchdog's.
  if (r->claimed.exchange(true, std::memory_order_acq_rel)) {
    release_request(r);
    return;
  }
  push_response(r, status, support::now_ns() - r->accepted_ns);
}

void NetServer::push_response(NetRequest* r, Status status,
                              std::int64_t server_ns) {
  if (status != Status::Ok && status != Status::OkApprox) {
    // Error/shed/timeout responses carry no payload.
    r->out.clear();
    r->out.resize(kLenPrefixBytes + kResponseHeaderBytes);
  }
  ResponseHeader h;
  h.id = r->id;
  h.status = status;
  h.server_ns = server_ns;
  put_u32(r->out.data(),
          static_cast<std::uint32_t>(r->out.size() - kLenPrefixBytes));
  h.encode(r->out.data() + kLenPrefixBytes);
  r->out_off = 0;

  Conn* c = r->conn;
  // Publishing r into the outq hands r's connection reference to whichever
  // thread flushes it — which can happen (and release the last reference)
  // the instant the CAS lands.  Pin c for the rest of this function; the
  // final unref's acq_rel also orders every access below before a
  // concurrent deleter.
  conn_ref(c);
  // Charge the byte cap BEFORE publishing: the flusher can only release a
  // request it popped after the push, so the decrement can never pass this
  // increment and the counter never underflows.
  r->frame_bytes = r->out.size();
  r->in_outq = true;
  const std::size_t queued =
      c->outq_bytes.fetch_add(r->frame_bytes, std::memory_order_relaxed) +
      r->frame_bytes;
  if (options_.max_outq_bytes != 0 && queued > options_.max_outq_bytes) {
    // Slow-consumer backpressure: flag the connection for closure.  The
    // owning poller acts on it in handle_writable; the arm below (or the
    // already-armed flush in progress) guarantees it gets there.
    c->slow_kill.store(true, std::memory_order_release);
  }
  // Publish first (Treiber push), then decide who flushes.  seq_cst: see
  // handle_writable.
  NetRequest* head = c->outq.load(std::memory_order_relaxed);
  do {
    r->next = head;
  } while (!c->outq.compare_exchange_weak(head, r, std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
  if (!c->closed.load(std::memory_order_seq_cst)) {
    if (!c->out_armed.exchange(true, std::memory_order_seq_cst)) {
      // We armed the flush: hand the connection to its poller.
      conn_ref(c);  // ready-list reference
      Poller& p = *c->poller;
      Conn* rh = p.ready.load(std::memory_order_relaxed);
      do {
        c->ready_next = rh;
      } while (!p.ready.compare_exchange_weak(rh, c, std::memory_order_seq_cst,
                                              std::memory_order_relaxed));
      const std::uint64_t tick = 1;
      [[maybe_unused]] const auto n = ::write(p.evfd, &tick, sizeof tick);
    }
  } else {
    // The connection closed under us; whoever holds the exchange reaps —
    // possibly including the response just pushed.
    reap_outq(c);
  }
  conn_unref(c);
}

}  // namespace sigrt::net
