// The query daemon: a long-running HTTP/1.1 server over one loaded snapshot.
//
// `hybridtor serve <snapshot> --port N` builds a QueryDaemon, which loads
// the snapshot once into a snapshot::QueryIndex and then serves lookups
// from memory — the daemon is what turns the batch census pipeline into a
// serving system.  Architecture:
//
//   - One acceptor thread polls the listening socket (200 ms ticks so stop
//     and reload requests are honoured promptly) and hands each accepted
//     connection to the shared util::ThreadPool, sized by --jobs.
//   - Each connection runs a keep-alive read/parse/respond pump built on
//     server::RequestParser; malformed or over-limit requests get a
//     reasoned 4xx JSON body and the connection closes.  A connection that
//     has nothing readable after one poll tick *yields its worker* — the
//     pump re-enqueues itself on the pool — so idle keep-alive clients
//     round-robin with new connections instead of pinning workers (two
//     lazy clients cannot starve /v1/healthz).  Idle connections are
//     reaped after `idle_timeout_ms`.
//   - The serving state (a zero-copy QueryIndex view + epoch counter) is
//     immutable behind a shared_ptr.  Hot reload — POST /v1/reload or
//     SIGHUP via request_reload() — is read-validate-swap: the file bytes
//     are validated in place and wrapped with no per-entry decode.  The
//     bytes are *owned*, not a live mmap of the file: the snapshot path can
//     be truncated or rewritten in place underneath a running daemon (the
//     torn-file stress tests do exactly that), and owned bytes fail that
//     race cleanly where a mapping would SIGBUS.  In-flight requests keep
//     the state they started with — views pin the old image until the last
//     reader drops — and a snapshot that fails to validate leaves the old
//     state serving (the error is reported in the 503 body and
//     /v1/metrics, which also records the reload's duration in µs).
//
// Endpoints (JSON bodies unless noted, shapes in server/render.hpp):
//   GET  /v1/link/<a>/<b>    oriented rel_v4 / rel_v6 / hybrid for one link
//   GET  /v1/neighbors/<asn> full neighbor list with both planes
//   GET  /v1/summary         dataset / coverage / valley / hybrid counters
//   GET  /v1/healthz         liveness + current epoch; 503 "degraded" with
//                            the error once the feed behind the served
//                            epochs has failed (set_degraded)
//   GET  /v1/metrics         the daemon's own series as JSON: epoch and
//                            snapshot identity, request/status counts,
//                            latency histogram, reload outcomes
//   GET  /metrics            Prometheus text exposition of the process-wide
//                            obs::MetricsRegistry (daemon, reload, thread
//                            pool, snapshot, ingest — everything), including
//                            htor_served_{links,ases,hybrid_links}: the
//                            served index's /v1/summary "index" counts
//   POST /v1/reload          reload the snapshot file, swap on success
//
// Telemetry lives in obs::MetricsRegistry::global(); every /v1/metrics
// value renders from the same handles /metrics scrapes, so the two can
// never disagree.  Recording points, fixed deliberately:
//
//   - Request/status counters increment in handle(), after route() returns —
//     so a metrics body rendered *inside* route() never counts its own
//     request, whichever exposition format asked.
//   - The latency histogram is recorded at exactly one point for every
//     endpoint: in the connection pump, after the response is fully
//     serialized and before the socket write.  Serialization is our work
//     and belongs in the measurement; socket write time measures the peer's
//     read behaviour, not us, and recording before the write guarantees a
//     client that reads its response and then scrapes sees its own request
//     (read-your-writes).  Socketless handle() calls (tests, the routing
//     bench) therefore record no latency sample — nothing was served.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "server/http.hpp"
#include "snapshot/query.hpp"
#include "snapshot/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace htor::server {

struct DaemonConfig {
  std::uint16_t port = 8080;  ///< 0 binds an ephemeral port (see port())
  /// Connection worker pool size; 0 = one per hardware thread.  Floored at
  /// 2 actual workers so connections never run inline on the acceptor
  /// thread (ThreadPool's jobs<=1 inline mode would let one keep-alive
  /// client starve accepts and reloads).
  std::size_t jobs = 0;
  HttpLimits limits;          ///< parser bounds, per connection
  int idle_timeout_ms = 5000; ///< keep-alive connections are reaped after this
};

class QueryDaemon {
 public:
  /// Loads `snapshot_path` eagerly — a snapshot that does not decode fails
  /// construction, never a half-started daemon.
  QueryDaemon(std::string snapshot_path, DaemonConfig config = {});

  /// Serve an in-memory index with no backing file (the serve --follow
  /// path: epochs arrive via swap_index(), not reload()).  reload() on such
  /// a daemon fails gracefully with an explanatory error.
  explicit QueryDaemon(snapshot::QueryIndex index, DaemonConfig config = {});

  ~QueryDaemon();

  QueryDaemon(const QueryDaemon&) = delete;
  QueryDaemon& operator=(const QueryDaemon&) = delete;

  /// Bind, listen, and spawn the acceptor.  Throws Error on any socket
  /// failure (port in use, no permission).
  void start();

  /// Stop accepting, drain in-flight connections, join.  Idempotent.
  void stop();

  /// The port actually bound (resolves port 0 after start()).
  std::uint16_t port() const { return bound_port_; }

  /// Reload the snapshot file now (caller thread).  On success the new
  /// state is swapped in and the epoch advances; on failure the old state
  /// keeps serving and last_reload_error() explains why.
  bool reload();

  /// Async-signal-safe reload request (the SIGHUP handler calls this); the
  /// acceptor performs the reload on its next tick.
  void request_reload() { reload_requested_.store(true, std::memory_order_relaxed); }

  /// Swap a fresh index in (the live-follow publish path): the epoch
  /// advances and new requests see the new index immediately, while
  /// in-flight requests finish on the state they pinned — exactly the
  /// reload() swap discipline, minus the file read.
  void swap_index(snapshot::QueryIndex index);

  std::uint64_t epoch() const;
  std::string last_reload_error() const;

  /// Mark the served epochs as frozen by a failure upstream (serve
  /// --follow's feed ended in `error`): the daemon keeps answering from the
  /// last epoch, and /v1/healthz answers 503 {"status":"degraded"} with the
  /// error.  Stays set until the daemon is destroyed.
  void set_degraded(std::string error);

  /// Route one parsed request to a response.  Public so tests and the
  /// loopback bench can exercise routing without a socket.
  HttpResponse handle(const HttpRequest& request);

  /// The /v1/metrics body.
  std::string metrics_json() const;

 private:
  /// Immutable serving state; connections pin it with a shared_ptr so a
  /// reload never invalidates an in-flight request.  The index is a view
  /// over a shared snapshot image, so the state carries no decoded maps.
  struct ServingState {
    snapshot::QueryIndex index;
    std::uint64_t epoch;

    ServingState(snapshot::QueryIndex i, std::uint64_t e) : index(std::move(i)), epoch(e) {}
  };

  /// Per-connection pump state; lives on the heap across worker yields.
  struct Connection;
  enum class PumpResult { Finished, Yield };

  void register_metrics();
  std::shared_ptr<const ServingState> current() const;
  void accept_loop();
  /// Run `conn` until it finishes or yields; on yield, re-enqueue it.
  void pump_connection(std::shared_ptr<Connection> conn);
  /// One pump slice: drain buffered bytes, answer complete requests, poll
  /// one tick for more.  Yield = nothing readable yet, give the worker up.
  PumpResult pump(Connection& conn);
  void record(std::size_t endpoint, int status);
  HttpResponse route(const HttpRequest& request, std::size_t& endpoint);

  // Endpoint slots for the metrics counters.
  enum Endpoint : std::size_t { kLink, kNeighbors, kSummary, kHealthz, kMetrics, kReload, kOther, kEndpointCount };

  std::string snapshot_path_;
  DaemonConfig config_;

  mutable std::mutex state_mutex_;
  std::shared_ptr<const ServingState> state_;
  std::string last_reload_error_;
  std::optional<std::string> degraded_error_;  ///< set_degraded()'s error
  std::mutex reload_mutex_;  ///< serializes concurrent reload() calls

  ThreadPool pool_;
  // lint: allow(naked-thread) dedicated acceptor; joined in stop()
  std::thread acceptor_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> reload_requested_{false};
  // lint: allow(adhoc-atomic-counter) lifecycle state, not telemetry —
  // stop() spins on it to quiesce, so it must survive a registry reset;
  // the htor_http_active_connections gauge polls it via callback
  std::atomic<std::size_t> active_connections_{0};

  // Handles into MetricsRegistry::global() — resolved once at construction
  // so the request path never does a name lookup.  The JSON /v1/metrics
  // body and the Prometheus /metrics body both render from these (the JSON
  // shape is unchanged from when the daemon owned raw atomics).
  static constexpr std::size_t kLatencyBuckets = obs::Histogram::kBuckets;
  std::array<obs::Counter, kEndpointCount> endpoint_requests_;
  std::array<obs::Counter, 4> status_class_;  // 2xx,3xx,4xx,5xx
  obs::Histogram request_latency_;
  obs::Counter parse_failures_;
  obs::Counter reloads_ok_;
  obs::Counter reloads_failed_;
  obs::Gauge last_reload_us_;
  /// Polled gauges (epoch, the served index's counts, active connections,
  /// pool queue depth / executed tasks).  Declared last: destroyed first,
  /// so no scrape can reach a callback after the members it reads are gone.
  std::vector<obs::CallbackMetric> polled_;
};

}  // namespace htor::server
