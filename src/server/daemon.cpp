#include "server/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "server/render.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace htor::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll tick: how promptly stop()/request_reload() are honoured.
constexpr int kTickMs = 200;

const char* endpoint_name(std::size_t endpoint) {
  switch (endpoint) {
    case 0: return "link";
    case 1: return "neighbors";
    case 2: return "summary";
    case 3: return "healthz";
    case 4: return "metrics";
    case 5: return "reload";
    default: return "other";
  }
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

HttpResponse method_not_allowed(const char* allowed) {
  return json_response(405, error_json(std::string("method not allowed; use ") + allowed));
}

/// Connection pool sizing.  ThreadPool treats jobs <= 1 as "run inline on
/// the caller", which for a daemon would execute whole keep-alive
/// connections on the acceptor thread — one slow client would starve
/// accepts and reload requests.  Floor at 2 real workers (this also covers
/// jobs = 0 on a single-core host, where hardware_threads() is 1).
std::size_t connection_workers(std::size_t jobs) {
  const std::size_t n = jobs == 0 ? ThreadPool::hardware_threads() : jobs;
  return std::max<std::size_t>(n, 2);
}

}  // namespace

QueryDaemon::QueryDaemon(std::string snapshot_path, DaemonConfig config)
    : snapshot_path_(std::move(snapshot_path)),
      config_(config),
      pool_(connection_workers(config.jobs)) {
  // Eager initial load: a daemon never starts without a servable index.
  state_ = std::make_shared<const ServingState>(snapshot::QueryIndex::open(snapshot_path_), 1);
  register_metrics();
}

QueryDaemon::QueryDaemon(snapshot::QueryIndex index, DaemonConfig config)
    : config_(config), pool_(connection_workers(config.jobs)) {
  // No backing file: the index was built in memory (serve --follow) and
  // future states arrive through swap_index().
  state_ = std::make_shared<const ServingState>(std::move(index), 1);
  register_metrics();
}

void QueryDaemon::register_metrics() {
  auto& registry = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    endpoint_requests_[i] =
        registry.counter("htor_http_requests_total", {{"endpoint", endpoint_name(i)}});
  }
  static constexpr const char* kClasses[] = {"2xx", "3xx", "4xx", "5xx"};
  for (std::size_t i = 0; i < 4; ++i) {
    status_class_[i] = registry.counter("htor_http_responses_total", {{"class", kClasses[i]}});
  }
  request_latency_ = registry.histogram("htor_http_request_duration_us");
  parse_failures_ = registry.counter("htor_http_parse_failures_total");
  reloads_ok_ = registry.counter("htor_reloads_total", {{"result", "ok"}});
  reloads_failed_ = registry.counter("htor_reloads_total", {{"result", "failed"}});
  last_reload_us_ = registry.gauge("htor_reload_last_us");

  using Kind = obs::MetricsRegistry::Kind;
  polled_.push_back(registry.callback("htor_daemon_epoch", {}, Kind::Gauge,
                                      [this] { return static_cast<std::int64_t>(epoch()); }));
  // The served index's counts (the /v1/summary "index" object): read off
  // the current state, so a swap or reload replaces them with the index.
  polled_.push_back(registry.callback("htor_served_links", {}, Kind::Gauge, [this] {
    return static_cast<std::int64_t>(current()->index.link_count());
  }));
  polled_.push_back(registry.callback("htor_served_ases", {}, Kind::Gauge, [this] {
    return static_cast<std::int64_t>(current()->index.as_count());
  }));
  polled_.push_back(registry.callback("htor_served_hybrid_links", {}, Kind::Gauge, [this] {
    return static_cast<std::int64_t>(current()->index.hybrid_count());
  }));
  polled_.push_back(registry.callback(
      "htor_http_active_connections", {}, Kind::Gauge, [this] {
        return static_cast<std::int64_t>(active_connections_.load(std::memory_order_relaxed));
      }));
  polled_.push_back(registry.callback(
      "htor_threadpool_queue_depth", {{"pool", "serve"}}, Kind::Gauge,
      [this] { return static_cast<std::int64_t>(pool_.queued()); }));
  polled_.push_back(registry.callback(
      "htor_threadpool_tasks_executed_total", {{"pool", "serve"}}, Kind::Counter,
      [this] { return static_cast<std::int64_t>(pool_.executed()); }));
}

QueryDaemon::~QueryDaemon() { stop(); }

std::shared_ptr<const QueryDaemon::ServingState> QueryDaemon::current() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

std::uint64_t QueryDaemon::epoch() const { return current()->epoch; }

std::string QueryDaemon::last_reload_error() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return last_reload_error_;
}

void QueryDaemon::set_degraded(std::string error) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  degraded_error_ = std::move(error);
}

void QueryDaemon::start() {
  if (running_.load()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw Error("serve: socket() failed: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Non-blocking listener: a connection that is reset between poll()
  // reporting it and accept() taking it must yield EAGAIN, not block the
  // acceptor (and with it stop() and pending reloads) indefinitely.
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // lint: allow(raw-cast) sockaddr_in -> sockaddr is the BSD sockets ABI
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: cannot bind 127.0.0.1:" + std::to_string(config_.port) + ": " + why);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: listen() failed: " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  // lint: allow(raw-cast) sockaddr_in -> sockaddr is the BSD sockets ABI
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  stop_.store(false);
  running_.store(true);
  // lint: allow(naked-thread) the acceptor must outlive pool tasks and poll
  // its own fd; it is joined by stop() before the pool is torn down
  acceptor_ = std::thread([this] { accept_loop(); });
}

void QueryDaemon::stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connection tasks observe stop_ within one poll tick; wait for the last
  // of them so stop() really means quiesced (in-flight responses included).
  while (active_connections_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void QueryDaemon::swap_index(snapshot::QueryIndex index) {
  // Same discipline as reload()'s swap: the expensive part (building the
  // index) happened on the caller's thread; under the lock there is only a
  // pointer assignment.  In-flight requests keep the state they pinned.
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  std::lock_guard<std::mutex> lock(state_mutex_);
  state_ = std::make_shared<const ServingState>(std::move(index), state_->epoch + 1);
}

bool QueryDaemon::reload() {
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  if (snapshot_path_.empty()) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    last_reload_error_ = "daemon serves a live in-memory index; no snapshot file to reload";
    reloads_failed_.inc();
    return false;
  }
  const auto t0 = Clock::now();
  std::shared_ptr<const ServingState> fresh;
  try {
    // Read-validate-wrap happens here, outside state_mutex_: readers keep
    // answering from the old state until the single pointer swap below.
    // For a v2 file this is O(1) decoded work — no per-entry decode.
    fresh = std::make_shared<const ServingState>(snapshot::QueryIndex::open(snapshot_path_),
                                                 epoch() + 1);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    last_reload_error_ = e.what();
    reloads_failed_.inc();
    return false;  // the old state keeps serving, untouched
  }
  const auto micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
  std::lock_guard<std::mutex> lock(state_mutex_);
  state_ = std::move(fresh);
  last_reload_error_.clear();
  reloads_ok_.inc();
  last_reload_us_.set(static_cast<std::int64_t>(micros));
  return true;
}

void QueryDaemon::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    if (reload_requested_.exchange(false, std::memory_order_relaxed)) reload();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kTickMs);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    auto conn = std::make_shared<Connection>(fd, config_);
    pool_.submit([this, conn = std::move(conn)] { pump_connection(conn); });
  }
}

struct QueryDaemon::Connection {
  Connection(int fd_in, const DaemonConfig& config)
      : fd(fd_in),
        parser(config.limits),
        idle_deadline(Clock::now() + std::chrono::milliseconds(config.idle_timeout_ms)) {}

  int fd;
  RequestParser parser;
  std::string pending;  // bytes received but not yet consumed by the parser
  Clock::time_point idle_deadline;
};

void QueryDaemon::pump_connection(std::shared_ptr<Connection> conn) {
  PumpResult result = PumpResult::Finished;
  try {
    result = pump(*conn);
  } catch (...) {
    // A connection must never take the daemon down.
  }
  if (result == PumpResult::Yield) {
    // Nothing readable this tick: give the worker back so other
    // connections (and fresh accepts queued behind us) make progress.
    pool_.submit([this, conn = std::move(conn)] { pump_connection(conn); });
    return;
  }
  ::close(conn->fd);
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

QueryDaemon::PumpResult QueryDaemon::pump(Connection& conn) {
  char buf[4096];
  for (;;) {
    // Drain buffered bytes through the parser first: keep-alive reuse and
    // pipelined requests both land here with `pending` non-empty.
    while (!conn.pending.empty()) {
      std::size_t consumed = 0;
      const auto status = conn.parser.feed(conn.pending, consumed);
      conn.pending.erase(0, consumed);
      if (status == RequestParser::Status::Bad) {
        parse_failures_.inc();
        const std::size_t cls =
            static_cast<std::size_t>(std::clamp(conn.parser.error_status() / 100 - 2, 0, 3));
        status_class_[cls].inc();
        HttpResponse resp = json_response(conn.parser.error_status(),
                                          error_json(conn.parser.error()));
        resp.keep_alive = false;  // the stream is unsynchronized; drop it
        send_all(conn.fd, resp.serialize());
        return PumpResult::Finished;
      }
      if (status == RequestParser::Status::NeedMore) break;
      const HttpRequest& request = conn.parser.request();
      const auto t0 = Clock::now();
      HttpResponse resp = handle(request);
      resp.keep_alive = request.keep_alive() && !stop_.load(std::memory_order_relaxed);
      const std::string wire = resp.serialize(request.method != "HEAD");
      // The one latency recording point: route + render + serialize done,
      // socket write not yet started (rationale in daemon.hpp).
      request_latency_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count()));
      if (!send_all(conn.fd, wire)) {
        return PumpResult::Finished;
      }
      if (!resp.keep_alive) return PumpResult::Finished;
      conn.parser = RequestParser(config_.limits);
      conn.idle_deadline = Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);
    }

    // One short poll tick, then either read or hand the worker back.
    if (stop_.load(std::memory_order_relaxed)) return PumpResult::Finished;
    if (Clock::now() >= conn.idle_deadline) return PumpResult::Finished;
    pollfd pfd{conn.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return PumpResult::Finished;
    }
    if (ready == 0) return PumpResult::Yield;  // quiet: don't pin the worker
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return PumpResult::Finished;
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n <= 0) return PumpResult::Finished;  // peer closed (truncated requests
                                              // get no reply) or error
    conn.pending.append(buf, static_cast<std::size_t>(n));
  }
}

HttpResponse QueryDaemon::handle(const HttpRequest& request) {
  std::size_t endpoint = kOther;
  HttpResponse resp;
  try {
    resp = route(request, endpoint);
  } catch (const std::exception& e) {
    resp = json_response(500, error_json(std::string("internal error: ") + e.what()));
  }
  record(endpoint, resp.status);
  return resp;
}

HttpResponse QueryDaemon::route(const HttpRequest& request, std::size_t& endpoint) {
  endpoint = kOther;
  std::string_view path = request.target;
  path = path.substr(0, path.find('?'));
  const bool is_get = request.method == "GET" || request.method == "HEAD";

  if (path == "/v1/healthz") {
    endpoint = kHealthz;
    if (!is_get) return method_not_allowed("GET");
    std::optional<std::string> degraded;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      degraded = degraded_error_;
    }
    JsonWriter json;
    json.begin_object();
    json.key("status").value(degraded ? "degraded" : "ok");
    json.key("epoch").value(epoch());
    if (degraded) json.key("error").value(*degraded);
    json.end_object();
    return json_response(degraded ? 503 : 200, json.str() + "\n");
  }

  if (path == "/v1/summary") {
    endpoint = kSummary;
    if (!is_get) return method_not_allowed("GET");
    const auto state = current();
    return json_response(200, summary_json(state->index));
  }

  if (path == "/v1/metrics") {
    endpoint = kMetrics;
    if (!is_get) return method_not_allowed("GET");
    return json_response(200, metrics_json());
  }

  if (path == "/metrics") {
    // Prometheus text exposition of the whole process registry — the same
    // counters /v1/metrics renders as JSON, plus everything other
    // subsystems (ingest, snapshot, spans) recorded in this process.
    endpoint = kMetrics;
    if (!is_get) return method_not_allowed("GET");
    HttpResponse resp;
    resp.status = 200;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::MetricsRegistry::global().render_prometheus();
    return resp;
  }

  if (path == "/v1/reload") {
    endpoint = kReload;
    if (request.method != "POST") return method_not_allowed("POST");
    if (!reload()) {
      return json_response(503, error_json("reload failed, old snapshot still serving: " +
                                           last_reload_error()));
    }
    JsonWriter json;
    json.begin_object();
    json.key("status").value("reloaded");
    json.key("epoch").value(epoch());
    json.end_object();
    return json_response(200, json.str() + "\n");
  }

  constexpr std::string_view kLinkPrefix = "/v1/link/";
  if (path.rfind(kLinkPrefix, 0) == 0) {
    endpoint = kLink;
    if (!is_get) return method_not_allowed("GET");
    const auto rest = path.substr(kLinkPrefix.size());
    const auto parts = split(rest, '/');
    Asn a = 0;
    Asn b = 0;
    if (parts.size() != 2 || !parse_asn(parts[0], a) || !parse_asn(parts[1], b)) {
      return json_response(
          400, error_json("expected /v1/link/<asn>/<asn> with ASNs in 0..4294967295, got '" +
                          std::string(rest) + "'"));
    }
    const auto state = current();
    const auto info = state->index.lookup(a, b);
    if (!info) {
      return json_response(404, error_json("AS" + std::to_string(a) + "-AS" + std::to_string(b) +
                                           ": no relationship recorded in " + snapshot_path_));
    }
    return json_response(200, link_json(a, b, *info));
  }

  constexpr std::string_view kNeighborsPrefix = "/v1/neighbors/";
  if (path.rfind(kNeighborsPrefix, 0) == 0) {
    endpoint = kNeighbors;
    if (!is_get) return method_not_allowed("GET");
    const auto rest = path.substr(kNeighborsPrefix.size());
    Asn asn = 0;
    if (rest.find('/') != std::string_view::npos || !parse_asn(rest, asn)) {
      return json_response(
          400, error_json("expected /v1/neighbors/<asn> with an ASN in 0..4294967295, got '" +
                          std::string(rest) + "'"));
    }
    const auto state = current();
    if (!state->index.contains(asn)) {
      return json_response(404, error_json("AS" + std::to_string(asn) + ": not present in " +
                                           snapshot_path_));
    }
    return json_response(200, neighbors_json(asn, state->index.neighbors(asn)));
  }

  return json_response(404, error_json("no such endpoint: " + std::string(path)));
}

void QueryDaemon::record(std::size_t endpoint, int status) {
  endpoint_requests_[endpoint].inc();
  const std::size_t cls =
      static_cast<std::size_t>(std::clamp(status / 100 - 2, 0, 3));
  status_class_[cls].inc();
}

std::string QueryDaemon::metrics_json() const {
  const auto state = current();

  // Snapshot the registry values once; the keys and nesting below are the
  // pre-registry JSON shape, byte for byte.  requests_total is derived:
  // every routed request lands in exactly one endpoint counter and every
  // rejected parse in parse_failures, which is precisely what the old
  // requests_total atomic counted.
  std::array<std::uint64_t, kEndpointCount> per_endpoint{};
  std::uint64_t routed = 0;
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    per_endpoint[i] = endpoint_requests_[i].value();
    routed += per_endpoint[i];
  }
  const std::uint64_t parse_failures = parse_failures_.value();
  const auto latency = request_latency_.snapshot();

  JsonWriter json;
  json.begin_object();
  json.key("epoch").value(state->epoch);
  json.key("snapshot_source").value(state->index.source());
  json.key("snapshot_timestamp").value(state->index.timestamp());
  json.key("snapshot_format_version").value(state->index.format_version());
  json.key("snapshot_bytes").value(state->index.snapshot_bytes());
  json.key("requests_total").value(routed + parse_failures);
  json.key("parse_failures").value(parse_failures);

  json.key("by_endpoint").begin_object();
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    json.key(endpoint_name(i)).value(per_endpoint[i]);
  }
  json.end_object();

  json.key("by_status").begin_object();
  static constexpr const char* kClasses[] = {"2xx", "3xx", "4xx", "5xx"};
  for (std::size_t i = 0; i < 4; ++i) {
    json.key(kClasses[i]).value(status_class_[i].value());
  }
  json.end_object();

  // Bucket i counts requests whose serving took <= 2^i microseconds
  // (exclusive log2 buckets, not Prometheus-cumulative; the sum of counts
  // is the number of requests served over a socket — see the recording
  // point in daemon.hpp).
  json.key("latency_us").begin_object();
  json.key("bounds").begin_array();
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    json.value(std::uint64_t{1} << i);
  }
  json.end_array();
  json.key("counts").begin_array();
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    json.value(latency.counts[i]);
  }
  json.end_array();
  json.key("overflow").value(latency.overflow);
  json.end_object();

  json.key("reloads").begin_object();
  json.key("ok").value(reloads_ok_.value());
  json.key("failed").value(reloads_failed_.value());
  json.key("last_us").value(static_cast<std::uint64_t>(last_reload_us_.value()));
  json.end_object();

  json.end_object();
  return json.str() + "\n";
}

}  // namespace htor::server
