// End-to-end tests for the query daemon over real loopback sockets:
//
//   - responses are byte-identical to `hybridtor query --json` for the same
//     snapshot (checked against the shared render functions always, and
//     against the actual CLI binary when CTest exports HYBRIDTOR_CLI);
//   - concurrent clients all get identical, correct answers;
//   - malformed, oversized, and truncated requests get a reasoned 4xx (or
//     no reply, for a peer that hangs up mid-request) and never crash the
//     daemon or yield partial JSON;
//   - hot reload swaps the snapshot epoch without dropping an in-flight
//     keep-alive connection, and a corrupt snapshot file leaves the old
//     index serving.
//
// Labeled `e2e` in CTest so the slow suites can be filtered with -LE e2e.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid.hpp"
#include "obs/metrics.hpp"
#include "server/daemon.hpp"
#include "server/render.hpp"
#include "snapshot/query.hpp"
#include "snapshot/writer.hpp"
#include "util/json.hpp"

namespace htor::server {
namespace {

// ------------------------------------------------------------ tiny client

/// Blocking loopback HTTP client with a poll() safety timeout so a daemon
/// bug can never hang the test binary.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool send_raw(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Half-close the write side: "that's all the bytes you get".
  void finish_writing() { ::shutdown(fd_, SHUT_WR); }

  struct Response {
    bool ok = false;       ///< a complete response arrived
    bool eof_clean = true; ///< the stream ended without stray bytes
    int status = 0;
    std::string head;      ///< status line + headers
    std::string body;
  };

  /// Read one full response (headers + exact Content-Length body).  With
  /// `expect_body` false (HEAD), stops after the header block.
  Response read_response(bool expect_body = true) {
    Response resp;
    // Headers.
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) {
        resp.eof_clean = buffer_.empty();
        return resp;  // EOF/timeout before a full header block: not ok
      }
    }
    const auto header_end = buffer_.find("\r\n\r\n") + 4;
    resp.head = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end);
    if (resp.head.rfind("HTTP/1.1 ", 0) == 0 && resp.head.size() > 12) {
      resp.status = std::atoi(resp.head.c_str() + 9);
    }
    // Body, sized by Content-Length (the daemon always sends one).
    std::size_t content_length = 0;
    const auto cl = resp.head.find("Content-Length: ");
    if (cl != std::string::npos) {
      content_length = static_cast<std::size_t>(std::atol(resp.head.c_str() + cl + 16));
    }
    if (expect_body) {
      while (buffer_.size() < content_length) {
        if (!fill()) return resp;
      }
      resp.body = buffer_.substr(0, content_length);
      buffer_.erase(0, content_length);
    }
    resp.ok = true;
    return resp;
  }

 private:
  bool fill() {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// One-shot GET/POST: own connection, Connection: close.
Client::Response fetch(std::uint16_t port, const std::string& method, const std::string& target) {
  Client client(port);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.send_raw(method + " " + target + " HTTP/1.1\r\nConnection: close\r\n\r\n"));
  return client.read_response();
}

// ------------------------------------------------------------- snapshots

/// The served dataset.  `v6_flavor` flips link 1-2's IPv6 relationship so
/// reloads are observable: flavor A (P2P) makes the link hybrid, flavor B
/// (P2C) resolves it.
snapshot::Snapshot make_snapshot(bool flavor_a) {
  snapshot::Snapshot snap;
  snap.header.timestamp = flavor_a ? 1700000000u : 1700086400u;
  snap.header.source = flavor_a ? "e2e-a.mrt" : "e2e-b.mrt";
  snap.dataset = {10, 8, 5, 4, 3};
  snap.rels_v4.set(1, 2, Relationship::P2C);
  snap.rels_v4.set(2, 3, Relationship::P2P);
  snap.rels_v6.set(1, 2, flavor_a ? Relationship::P2P : Relationship::P2C);
  snap.rels_v6.set(3, 4, Relationship::C2P);
  if (flavor_a) {
    snap.hybrids.push_back({LinkKey(1, 2), Relationship::P2C, Relationship::P2P,
                            static_cast<std::uint8_t>(core::HybridClass::TransitV4PeerV6), 5});
  }
  return snap;
}

class ServerE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    // Daemon telemetry lives in the process-global registry; zero it so each
    // test's count assertions see only its own daemon's requests.
    obs::MetricsRegistry::global().reset_values();
    snap_path_ = (std::filesystem::temp_directory_path() /
                  ("htor_server_e2e_" + std::to_string(::getpid()) + ".snap"))
                     .string();
    snapshot::Writer::write_file(make_snapshot(true), snap_path_);
    DaemonConfig config;
    config.port = 0;  // ephemeral
    config.jobs = 4;
    daemon_ = std::make_unique<QueryDaemon>(snap_path_, config);
    daemon_->start();
    port_ = daemon_->port();
    ASSERT_NE(port_, 0);
  }

  void TearDown() override {
    daemon_.reset();  // stops and quiesces
    std::filesystem::remove(snap_path_);
  }

  /// What the CLI's `query --json` prints for the same snapshot, computed
  /// through the very same render functions the daemon uses.
  std::string expected_link_body(Asn a, Asn b) const {
    const snapshot::QueryIndex index = snapshot::QueryIndex::open(snap_path_);
    const auto info = index.lookup(a, b);
    if (!info) {
      return error_json("AS" + std::to_string(a) + "-AS" + std::to_string(b) +
                        ": no relationship recorded in " + snap_path_);
    }
    return link_json(a, b, *info);
  }

  std::string snap_path_;
  std::unique_ptr<QueryDaemon> daemon_;
  std::uint16_t port_ = 0;
};

/// Run the real CLI if CTest exported its path; empty optional otherwise.
std::optional<std::string> run_cli_stdout(const std::string& args) {
  const char* cli = std::getenv("HYBRIDTOR_CLI");
  if (cli == nullptr || *cli == '\0') return std::nullopt;
  const std::string cmd = std::string("\"") + cli + "\" " + args + " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[1024];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  // Exit 0 (found) and 1 (valid not-found answer) are real CLI output; 2 is
  // a usage error and 126/127 mean the shell could not run the binary — in
  // those cases fall back to the render-function check rather than
  // comparing against garbage.
  if (!WIFEXITED(status) || WEXITSTATUS(status) > 1) return std::nullopt;
  return out;
}

// ------------------------------------------------------------------ tests

TEST_F(ServerE2E, LinkResponseIsByteIdenticalToCliJson) {
  const auto resp = fetch(port_, "GET", "/v1/link/1/2");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, expected_link_body(1, 2));
  EXPECT_EQ(resp.body, "{\"a\":1,\"b\":2,\"rel_v4\":\"p2c\",\"rel_v6\":\"p2p\",\"hybrid\":true}\n");

  // Orientation flips with the query direction, exactly as in the CLI.
  const auto reversed = fetch(port_, "GET", "/v1/link/2/1");
  ASSERT_TRUE(reversed.ok);
  EXPECT_EQ(reversed.body, expected_link_body(2, 1));
  EXPECT_NE(reversed.body, resp.body);

  // And against the real CLI binary, when CTest told us where it lives.
  if (const auto cli = run_cli_stdout("query --json \"" + snap_path_ + "\" 1 2")) {
    EXPECT_EQ(resp.body, *cli) << "daemon body and CLI --json stdout must be byte-identical";
  } else {
    GTEST_LOG_(INFO) << "HYBRIDTOR_CLI not set; CLI byte-identity checked via render only";
  }
}

TEST_F(ServerE2E, NotFoundBodyMatchesCliJsonErrorShape) {
  const auto resp = fetch(port_, "GET", "/v1/link/1/99");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(resp.body, expected_link_body(1, 99));
  if (const auto cli = run_cli_stdout("query --json \"" + snap_path_ + "\" 1 99")) {
    EXPECT_EQ(resp.body, *cli);
  }
}

TEST_F(ServerE2E, NeighborsMatchCliJson) {
  const auto resp = fetch(port_, "GET", "/v1/neighbors/2");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 200);
  const snapshot::QueryIndex index = snapshot::QueryIndex::open(snap_path_);
  EXPECT_EQ(resp.body, neighbors_json(2, index.neighbors(2)));
  if (const auto cli = run_cli_stdout("query --json \"" + snap_path_ + "\" 2")) {
    EXPECT_EQ(resp.body, *cli);
  }

  const auto absent = fetch(port_, "GET", "/v1/neighbors/99");
  EXPECT_EQ(absent.status, 404);
  if (const auto cli = run_cli_stdout("query --json \"" + snap_path_ + "\" 99")) {
    EXPECT_EQ(absent.body, *cli);
  }
}

TEST_F(ServerE2E, SummaryHealthzAndMetricsServe) {
  const auto summary = fetch(port_, "GET", "/v1/summary");
  ASSERT_TRUE(summary.ok);
  EXPECT_EQ(summary.status, 200);
  EXPECT_EQ(summary.body, summary_json(snapshot::QueryIndex::open(snap_path_)));

  const auto health = fetch(port_, "GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"status\":\"ok\",\"epoch\":1}\n");

  const auto metrics = fetch(port_, "GET", "/v1/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"requests_total\":"), std::string::npos);
  EXPECT_NE(metrics.body.find("\"latency_us\":"), std::string::npos);
  EXPECT_NE(metrics.body.find("\"epoch\":1"), std::string::npos);
  // The snapshot's size has one key; the old `mapped_bytes` repeat is gone.
  EXPECT_NE(metrics.body.find("\"snapshot_bytes\":"), std::string::npos) << metrics.body;
  EXPECT_EQ(metrics.body.find("\"mapped_bytes\""), std::string::npos) << metrics.body;
}

TEST_F(ServerE2E, ConcurrentClientsGetIdenticalCorrectAnswers) {
  const std::string want_link = expected_link_body(1, 2);
  const snapshot::QueryIndex index = snapshot::QueryIndex::open(snap_path_);
  const std::string want_neighbors = neighbors_json(2, index.neighbors(2));

  constexpr int kThreads = 8;
  constexpr int kRequests = 25;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      // Each client holds one keep-alive connection for its whole run.
      Client client(port_);
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        const bool link = (t + i) % 2 == 0;
        const std::string target = link ? "/v1/link/1/2" : "/v1/neighbors/2";
        if (!client.send_raw("GET " + target + " HTTP/1.1\r\n\r\n")) {
          ++failures;
          return;
        }
        const auto resp = client.read_response();
        if (!resp.ok || resp.status != 200 || resp.body != (link ? want_link : want_neighbors)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerE2E, MalformedRequestsGet4xxNeverACrash) {
  const std::string long_line = "GET /" + std::string(4096, 'a') + " HTTP/1.1\r\n\r\n";
  std::string many_headers = "GET /v1/healthz HTTP/1.1\r\n";
  for (int i = 0; i < 100; ++i) many_headers += "X-H" + std::to_string(i) + ": v\r\n";
  many_headers += "\r\n";
  const std::string malformed[] = {
      "GARBAGE\r\n\r\n",
      "GET\r\n\r\n",
      "GET /v1/healthz HTTP/2.0\r\n\r\n",
      "GET /v1/healthz NONSENSE\r\n\r\n",
      "GET /v1/healthz HTTP/1.1\r\nbroken header\r\n\r\n",
      "POST /v1/reload HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
      "POST /v1/reload HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
      "POST /v1/reload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      long_line,
      many_headers,
  };
  for (const auto& wire : malformed) {
    Client client(port_);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw(wire));
    const auto resp = client.read_response();
    ASSERT_TRUE(resp.ok) << "daemon must answer, not drop: " << wire.substr(0, 40);
    EXPECT_GE(resp.status, 400) << wire.substr(0, 40);
    EXPECT_LT(resp.status, 500) << wire.substr(0, 40);
    // Never partial JSON: the error body is a complete object with newline.
    EXPECT_EQ(resp.body.rfind("{\"error\":", 0), 0u) << resp.body;
    EXPECT_EQ(resp.body.back(), '\n');
    EXPECT_NE(resp.head.find("Connection: close"), std::string::npos);
  }
  // The daemon took all of that without dying.
  EXPECT_EQ(fetch(port_, "GET", "/v1/healthz").status, 200);
}

TEST_F(ServerE2E, SemanticErrorsAre4xxJson) {
  EXPECT_EQ(fetch(port_, "GET", "/v1/link/abc/2").status, 400);
  EXPECT_EQ(fetch(port_, "GET", "/v1/link/1/2/3").status, 400);
  EXPECT_EQ(fetch(port_, "GET", "/v1/link/1").status, 400);
  EXPECT_EQ(fetch(port_, "GET", "/v1/neighbors/4294967296").status, 400);  // > max ASN
  EXPECT_EQ(fetch(port_, "GET", "/v1/nope").status, 404);
  EXPECT_EQ(fetch(port_, "GET", "/").status, 404);
  EXPECT_EQ(fetch(port_, "POST", "/v1/link/1/2").status, 405);
  EXPECT_EQ(fetch(port_, "GET", "/v1/reload").status, 405);
  EXPECT_EQ(fetch(port_, "DELETE", "/v1/healthz").status, 405);
}

TEST_F(ServerE2E, TruncatedRequestGetsNoReplyAndServerSurvives) {
  {
    Client client(port_);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw("GET /v1/heal"));  // hang up mid-request-line
    client.finish_writing();
    const auto resp = client.read_response();
    EXPECT_FALSE(resp.ok);        // no response at all...
    EXPECT_TRUE(resp.eof_clean);  // ...and no stray partial bytes either
  }
  {
    Client client(port_);
    ASSERT_TRUE(client.connected());
    // Headers promise a body that never comes.
    ASSERT_TRUE(client.send_raw("POST /v1/reload HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"));
    client.finish_writing();
    const auto resp = client.read_response();
    EXPECT_FALSE(resp.ok);
    EXPECT_TRUE(resp.eof_clean);
  }
  EXPECT_EQ(fetch(port_, "GET", "/v1/healthz").status, 200);
}

TEST_F(ServerE2E, HeadReturnsHeadersOnly) {
  Client client(port_);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("HEAD /v1/healthz HTTP/1.1\r\n\r\n"));
  const auto head = client.read_response(/*expect_body=*/false);
  ASSERT_TRUE(head.ok);
  EXPECT_EQ(head.status, 200);
  EXPECT_NE(head.head.find("Content-Length: "), std::string::npos);
  // The stream position is right where the next response must begin: a GET
  // on the same connection parses cleanly, so HEAD really sent no body.
  ASSERT_TRUE(client.send_raw("GET /v1/healthz HTTP/1.1\r\n\r\n"));
  const auto get = client.read_response();
  ASSERT_TRUE(get.ok);
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(get.body, "{\"status\":\"ok\",\"epoch\":1}\n");
}

TEST_F(ServerE2E, HotReloadSwapsEpochWithoutDroppingConnections) {
  // A keep-alive connection opened before the reload...
  Client persistent(port_);
  ASSERT_TRUE(persistent.connected());
  ASSERT_TRUE(persistent.send_raw("GET /v1/link/1/2 HTTP/1.1\r\n\r\n"));
  auto before = persistent.read_response();
  ASSERT_TRUE(before.ok);
  EXPECT_NE(before.body.find("\"hybrid\":true"), std::string::npos);

  // ...survives the swap to flavor B...
  snapshot::Writer::write_file(make_snapshot(false), snap_path_);
  const auto reload = fetch(port_, "POST", "/v1/reload");
  ASSERT_TRUE(reload.ok);
  EXPECT_EQ(reload.status, 200);
  EXPECT_EQ(reload.body, "{\"status\":\"reloaded\",\"epoch\":2}\n");

  // ...and now answers from the new index, still on the same socket.
  ASSERT_TRUE(persistent.send_raw("GET /v1/link/1/2 HTTP/1.1\r\n\r\n"));
  auto after = persistent.read_response();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("\"rel_v6\":\"p2c\""), std::string::npos);
  EXPECT_NE(after.body.find("\"hybrid\":false"), std::string::npos);
  EXPECT_EQ(after.body, expected_link_body(1, 2));  // still CLI-identical

  EXPECT_EQ(fetch(port_, "GET", "/v1/healthz").body, "{\"status\":\"ok\",\"epoch\":2}\n");
}

TEST_F(ServerE2E, CorruptSnapshotReloadKeepsOldIndexServing) {
  const std::string want = expected_link_body(1, 2);

  // Clobber the snapshot file with garbage...
  {
    std::ofstream out(snap_path_, std::ios::binary | std::ios::trunc);
    out << "this is not a snapshot";
  }
  const auto reload = fetch(port_, "POST", "/v1/reload");
  ASSERT_TRUE(reload.ok);
  EXPECT_EQ(reload.status, 503);
  EXPECT_NE(reload.body.find("old snapshot still serving"), std::string::npos);

  // ...and the daemon keeps answering from the index it already had.
  const auto resp = fetch(port_, "GET", "/v1/link/1/2");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, want);
  EXPECT_EQ(fetch(port_, "GET", "/v1/healthz").body, "{\"status\":\"ok\",\"epoch\":1}\n");

  const auto metrics = fetch(port_, "GET", "/v1/metrics");
  EXPECT_NE(metrics.body.find("\"reloads\":{\"ok\":0,\"failed\":1,"), std::string::npos);

  // A SIGHUP-style request_reload() with the file still corrupt is equally
  // harmless (the acceptor performs it on its next tick).
  daemon_->request_reload();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(fetch(port_, "GET", "/v1/link/1/2").body, want);

  // Repairing the file makes the next reload succeed.
  snapshot::Writer::write_file(make_snapshot(false), snap_path_);
  EXPECT_EQ(fetch(port_, "POST", "/v1/reload").status, 200);
  EXPECT_EQ(fetch(port_, "GET", "/v1/healthz").body, "{\"status\":\"ok\",\"epoch\":2}\n");
}

// Idle keep-alive connections must not pin pool workers: the daemon floors
// its pool at 2 real workers (so --jobs 1 never runs connections inline on
// the acceptor) and an idle connection yields its worker after one poll
// tick — so even MORE held-open clients than workers cannot starve a new
// client, a reload, or shutdown.
TEST(ServerJobsFloor, IdleKeepAliveClientsCannotStarveOthers) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("htor_jobsfloor_" + std::to_string(::getpid()) + ".snap"))
                               .string();
  snapshot::Writer::write_file(make_snapshot(true), path);
  DaemonConfig config;
  config.port = 0;
  config.jobs = 1;  // floored to 2 actual workers
  {
    QueryDaemon daemon(path, config);
    daemon.start();

    // Hold more live keep-alive connections open than the pool has workers.
    std::vector<std::unique_ptr<Client>> holders;
    for (int i = 0; i < 3; ++i) {
      holders.push_back(std::make_unique<Client>(daemon.port()));
      ASSERT_TRUE(holders.back()->connected());
      ASSERT_TRUE(holders.back()->send_raw("GET /v1/healthz HTTP/1.1\r\n\r\n"));
      ASSERT_TRUE(holders.back()->read_response().ok);  // now idling, held open
    }

    // A fresh client must still be served while all three idle open.
    const auto other = fetch(daemon.port(), "GET", "/v1/healthz");
    ASSERT_TRUE(other.ok);
    EXPECT_EQ(other.status, 200);

    // And the held connections are still alive afterwards, not dropped.
    ASSERT_TRUE(holders[0]->send_raw("GET /v1/healthz HTTP/1.1\r\n\r\n"));
    EXPECT_TRUE(holders[0]->read_response().ok);
  }  // ~QueryDaemon stops cleanly even with connections at rest
  std::filesystem::remove(path);
}

TEST_F(ServerE2E, MetricsCountRequests) {
  for (int i = 0; i < 5; ++i) fetch(port_, "GET", "/v1/link/1/2");
  fetch(port_, "GET", "/v1/nope");
  const auto metrics = fetch(port_, "GET", "/v1/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_NE(metrics.body.find("\"link\":5"), std::string::npos);
  EXPECT_NE(metrics.body.find("\"other\":1"), std::string::npos);
}

/// The value of one sample line ("name{labels} 42") in a Prometheus text
/// exposition, or nullopt when the sample is absent.
std::optional<std::uint64_t> prom_value(const std::string& text, const std::string& sample) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(sample + " ", 0) == 0) {
      return std::stoull(line.substr(sample.size() + 1));
    }
  }
  return std::nullopt;
}

// GET /metrics (Prometheus) and GET /v1/metrics (JSON) render the same
// registry, so every counter must agree.  The only wrinkle is
// self-observation: each metrics body is rendered inside route(), before its
// own request is counted, so the later scrape sees exactly one more
// metrics-endpoint request (the earlier scrape) than the earlier body does.
TEST_F(ServerE2E, PrometheusAndJsonMetricsAgree) {
  for (int i = 0; i < 5; ++i) fetch(port_, "GET", "/v1/link/1/2");
  fetch(port_, "GET", "/v1/nope");
  fetch(port_, "POST", "/v1/reload");

  const auto json_resp = fetch(port_, "GET", "/v1/metrics");
  ASSERT_TRUE(json_resp.ok);
  const auto prom_resp = fetch(port_, "GET", "/metrics");
  ASSERT_TRUE(prom_resp.ok);
  EXPECT_EQ(prom_resp.status, 200);
  EXPECT_NE(prom_resp.head.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(prom_resp.body.find("# TYPE htor_http_requests_total counter"), std::string::npos);

  const auto json = JsonValue::parse(json_resp.body);
  const auto& by_endpoint = json.at("by_endpoint");
  const std::string req = "htor_http_requests_total";

  // Counters the two metrics fetches themselves never touch: identical.
  EXPECT_EQ(prom_value(prom_resp.body, req + "{endpoint=\"link\"}"),
            by_endpoint.at("link").as_uint());
  EXPECT_EQ(by_endpoint.at("link").as_uint(), 5u);
  EXPECT_EQ(prom_value(prom_resp.body, req + "{endpoint=\"other\"}"),
            by_endpoint.at("other").as_uint());
  EXPECT_EQ(prom_value(prom_resp.body, req + "{endpoint=\"reload\"}"),
            by_endpoint.at("reload").as_uint());
  EXPECT_EQ(prom_value(prom_resp.body, "htor_reloads_total{result=\"ok\"}"),
            json.at("reloads").at("ok").as_uint());
  EXPECT_EQ(prom_value(prom_resp.body, "htor_reloads_total{result=\"failed\"}"),
            json.at("reloads").at("failed").as_uint());
  EXPECT_EQ(prom_value(prom_resp.body, "htor_http_parse_failures_total"),
            json.at("parse_failures").as_uint());

  // Self-observation offset: the Prometheus scrape ran after the JSON
  // request was fully recorded, so it sees it — and nothing else happened in
  // between.
  EXPECT_EQ(prom_value(prom_resp.body, req + "{endpoint=\"metrics\"}"),
            by_endpoint.at("metrics").as_uint() + 1);

  // Latency histograms: the JSON body excludes its own (not-yet-recorded)
  // request; the scrape includes it.
  std::uint64_t json_latency_total = json.at("latency_us").at("overflow").as_uint();
  for (const auto& count : json.at("latency_us").at("counts").as_array()) {
    json_latency_total += count.as_uint();
  }
  EXPECT_EQ(prom_value(prom_resp.body, "htor_http_request_duration_us_count"),
            json_latency_total + 1);

  // The process-wide registry reaches the exposition too: thread-pool and
  // snapshot metrics are present alongside the daemon's.
  EXPECT_NE(prom_resp.body.find("htor_threadpool_queue_depth{pool=\"serve\"}"),
            std::string::npos);
  EXPECT_NE(prom_resp.body.find("htor_threadpool_tasks_executed_total{pool=\"serve\"}"),
            std::string::npos);
  EXPECT_NE(prom_resp.body.find("htor_snapshot_opens_total"), std::string::npos);
  EXPECT_NE(prom_resp.body.find("htor_daemon_epoch"), std::string::npos);
}

// The htor_served_* gauges read the serving state, so they equal the
// /v1/summary "index" counts of whatever is served — and follow a reload.
TEST_F(ServerE2E, ServedGaugesTrackTheServedIndex) {
  auto expect_gauges_match_summary = [this] {
    const auto summary = JsonValue::parse(fetch(port_, "GET", "/v1/summary").body);
    const auto& index = summary.at("index");
    const auto prom = fetch(port_, "GET", "/metrics");
    EXPECT_TRUE(prom.ok);
    EXPECT_EQ(prom_value(prom.body, "htor_served_links"), index.at("links").as_uint());
    EXPECT_EQ(prom_value(prom.body, "htor_served_ases"), index.at("ases").as_uint());
    EXPECT_EQ(prom_value(prom.body, "htor_served_hybrid_links"),
              index.at("hybrid_links").as_uint());
    return index.at("hybrid_links").as_uint();
  };
  const auto hybrids_before = expect_gauges_match_summary();
  snapshot::Writer::write_file(make_snapshot(false), snap_path_);
  ASSERT_EQ(fetch(port_, "POST", "/v1/reload").status, 200);
  EXPECT_NE(expect_gauges_match_summary(), hybrids_before);
}

}  // namespace
}  // namespace htor::server
