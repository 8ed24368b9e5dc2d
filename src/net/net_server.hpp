// Network frontend: a nonblocking TCP serve tier in front of serve::Server.
//
//   sigrt::serve::Server srv({.runtime = {.workers = 8}});
//   const auto cls = srv.register_class({...});
//   sigrt::net::NetServer net(srv, {.port = 0, .pollers = 2});
//   net.register_kernel(7, {.fn = sobel_kernel, .significance = 0.7});
//   net.start();
//   ... clients connect to net.port(), frame requests (protocol.hpp) ...
//   srv.close();   // drain admitted work FIRST
//   net.stop();    // THEN tear the frontend down
//
// Architecture (the faabric-style frontend/executor split): a small pool of
// epoll poller threads owns all sockets; the serve tier's dispatchers and
// the runtime's workers never touch a file descriptor, and the pollers
// never execute tasks and never block —
//
//   * reads are level-triggered and drained to EAGAIN into a per-connection
//     FrameReader; each decoded frame is validated and submitted to
//     serve::Server under the tenant/class/deadline the header names, with
//     the response produced by the registered kernel handler on a WORKER
//     thread;
//   * completed responses are pushed onto the connection's lock-free
//     outbound queue from whatever thread completed them (worker on
//     service, dispatcher on perforation/shutdown drop via Job::on_drop);
//     an eventfd hands the connection to its poller, which writes until
//     EAGAIN and falls back to EPOLLOUT for the remainder — the
//     producer-side cost is one queue push + (only when the poller sleeps)
//     one eventfd write;
//   * per-request state lives in pooled NetRequest nodes whose payload and
//     response buffers keep their capacity, so the steady-state framing /
//     dispatch / response path performs no allocation per request.
//
// Connections are reference-counted: the poller holds one reference, every
// in-flight request one more; a connection that dies with requests still in
// flight stays alive (as a closed shell absorbing their responses) until
// the last completion drops its reference.
//
// Shutdown contract: serve::Server::close() first (drains every admitted
// request, so no completion can touch a connection afterwards), then
// NetServer::stop() joins the pollers and frees what remains.  stop() does
// not drain the serve tier and must not be called while requests are in
// flight.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "serve/server.hpp"
#include "support/spinlock.hpp"

namespace sigrt::net {

struct NetServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// port()).  Binds 0.0.0.0.
  std::uint16_t port = 0;

  /// Poller threads.  Each owns one epoll instance; connections are
  /// assigned round-robin at accept.  One poller saturates loopback at
  /// this protocol's frame sizes; more shard large connection counts.
  /// 0 counts as 1.
  unsigned pollers = 1;

  /// Per-connection outbound queue cap in bytes.  A client that stops
  /// reading while responses keep completing would otherwise buffer
  /// unboundedly in the server; at the cap the connection is closed
  /// orderly (queued responses reaped, `slow_closed` counted) — the
  /// slow-consumer backpressure of last resort.  0 disables the cap.
  std::size_t max_outq_bytes = 4u << 20;

  /// Idle-connection reaper: a connection with no read/write progress and
  /// no pending output for this long is closed (`idle_closed` counted).
  /// Sweeps ride the poller's 100 ms epoll timeout, so the granularity is
  /// coarse.  0 disables reaping.
  std::uint32_t idle_timeout_ms = 0;

  /// Called at the start of every poller thread ("poller", index).  Wired
  /// to the same hook serve::ServerOptions carries so benchmarks can tag
  /// every non-worker thread for allocation accounting.  Optional.
  std::function<void(const char* role, unsigned index)> thread_start_hook;
};

/// One registered computation.  `fn` runs on a runtime WORKER thread (never
/// a poller): it reads the request payload and appends the response payload
/// to `out` (whose capacity is recycled across requests — append, don't
/// reserve fresh storage, to keep the zero-alloc steady state).
/// `approximate` distinguishes the degraded variant: kernels encode their
/// own quality cliff (fewer iterations, coarser stride, empty result).
struct KernelHandler {
  std::function<void(const std::uint8_t* payload, std::size_t bytes,
                     bool approximate, std::vector<std::uint8_t>& out)>
      fn;
  /// Significance attached to the spawned request task (paper semantics:
  /// 1.0 pins accurate, <= 0 pins approximate).
  double significance = 0.5;
};

class NetServer {
 public:
  /// Does not listen yet — register kernels, then start().
  NetServer(serve::Server& server, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Registers the handler behind a wire kernel id.  Before start() or
  /// concurrently with traffic (slot publication is atomic); re-registering
  /// an id replaces the handler for future requests.  Throws
  /// std::out_of_range for id >= kMaxKernels.
  void register_kernel(std::uint32_t kernel, KernelHandler handler);

  /// Binds, listens and spawns the poller threads.  Throws
  /// std::system_error on socket failures.
  void start();

  /// Bound port (after start()); the ephemeral-port answer for port = 0.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Joins the pollers and frees remaining connections.  Call
  /// serve::Server::close() first — see the shutdown contract above.
  /// Idempotent.
  void stop();

  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t requests = 0;         ///< well-formed frames submitted
    std::uint64_t responses = 0;        ///< response frames fully written
    std::uint64_t protocol_errors = 0;  ///< Bad* responses + framing aborts
    std::uint64_t slow_closed = 0;      ///< closed at the outq byte cap
    std::uint64_t idle_closed = 0;      ///< closed by the idle reaper
  };
  [[nodiscard]] Counters counters() const noexcept;

  static constexpr std::size_t kMaxKernels = 64;

 private:
  struct Conn;
  struct NetRequest;
  struct Poller;

  static void run_body(NetRequest* r, bool approximate);
  void submit_frame(Conn* conn, const std::uint8_t* body, std::size_t bytes);
  void respond_error(Conn* conn, std::uint32_t id, Status status);
  /// A pooled request node for response `id` on `conn`, unclaimed, with
  /// `pins` node references and its own connection reference.
  [[nodiscard]] NetRequest* start_request(Conn* conn, std::uint32_t id,
                                          int pins);
  /// Claims the single-responder token, then frames and pushes; a request
  /// already answered (by the watchdog) is released instead.
  void finish(NetRequest* r, Status status);
  /// The one response-framing path: writes the length prefix and header
  /// (payload-less unless `status` is Ok/OkApprox) and publishes the frame
  /// on the connection's outbound queue.
  void push_response(NetRequest* r, Status status, std::int64_t server_ns);

  [[nodiscard]] NetRequest* acquire_request();
  /// Write-path release: returns the request's outq byte charge, then
  /// unpins.  For requests that were pushed onto a connection's outbound
  /// queue (poller write completion, close-time reaping).
  void release_request(NetRequest* r);
  /// Drops one pin; the node recycles (fields cleared, connection
  /// reference dropped, freelist push) when the last pin goes.  Watchdog
  /// requests carry two pins — the response path and the timeout closure —
  /// so a late `on_timeout` can never touch a recycled node.
  void unpin_request(NetRequest* r);

  void conn_ref(Conn* c) noexcept;
  void conn_unref(Conn* c) noexcept;
  void close_conn(Conn* c) noexcept;
  void reap_outq(Conn* c) noexcept;

  void poller_loop(Poller& p, unsigned index);
  void idle_sweep(Poller& p);
  void drain_ready(Poller& p);
  void handle_accept(Poller& p);
  void handle_readable(Conn* c);
  void handle_writable(Conn* c);
  [[nodiscard]] bool write_some(Conn* c);

  serve::Server& server_;
  NetServerOptions options_;

  std::array<std::atomic<KernelHandler*>, kMaxKernels> kernels_{};
  support::SpinLock kernel_lock_;
  std::vector<std::unique_ptr<KernelHandler>> owned_kernels_
      SIGRT_GUARDED_BY(kernel_lock_);

  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  /// Each poller owns its own SO_REUSEPORT listener, so a connection's
  /// entire life (accept, reads, writes, close) happens on one poller
  /// thread — the kernel load-balances accepts across them and no epoll
  /// instance is ever touched cross-thread.
  std::vector<std::unique_ptr<Poller>> pollers_;

  support::SpinLock conns_lock_;
  /// Registry holds one reference per connection.
  std::vector<Conn*> conns_ SIGRT_GUARDED_BY(conns_lock_);

  support::SpinLock pool_lock_;
  NetRequest* request_pool_ SIGRT_GUARDED_BY(pool_lock_) = nullptr;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_count_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> slow_closed_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
  std::atomic<std::uint64_t> conn_serial_{0};  ///< fault-stream identity
};

}  // namespace sigrt::net
