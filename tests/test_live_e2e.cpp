// End-to-end test for `serve --follow` (live::FollowService): the daemon
// answers /v1/link on a keep-alive connection WHILE the BGP4MP update
// stream is applied and epochs are swapped in underneath it — no dropped
// connections, the epoch counter advances with every publish, and
// GET /metrics exposes the htor_live_* pipeline series and htor_served_*
// gauges that describe the index being served.  Before any update applies,
// the served epoch answers exactly as `serve` of the batch snapshot does,
// and an unreadable IRR path fails the service at construction.
//
// Labeled `e2e` in CTest so the slow suites can be filtered with -LE e2e.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/census_report.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "live/follow.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "obs/metrics.hpp"
#include "rpsl/community_dict.hpp"
#include "server/daemon.hpp"
#include "snapshot/query.hpp"
#include "snapshot/writer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace htor::live {
namespace {

// ------------------------------------------------------------ tiny client
// (Same shape as test_server_e2e's client: blocking with a poll() timeout.)

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

  struct Response {
    bool ok = false;
    int status = 0;
    std::string body;
  };

  Response read_response() {
    Response resp;
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return resp;
    }
    const auto header_end = buffer_.find("\r\n\r\n") + 4;
    const std::string head = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end);
    if (head.rfind("HTTP/1.1 ", 0) == 0 && head.size() > 12) {
      resp.status = std::atoi(head.c_str() + 9);
    }
    std::size_t content_length = 0;
    const auto cl = head.find("Content-Length: ");
    if (cl != std::string::npos) {
      content_length = static_cast<std::size_t>(std::atol(head.c_str() + cl + 16));
    }
    while (buffer_.size() < content_length) {
      if (!fill()) return resp;
    }
    resp.body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
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

Client::Response fetch(std::uint16_t port, const std::string& method,
                       const std::string& target) {
  Client client(port);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.send_raw(method + " " + target + " HTTP/1.1\r\nConnection: close\r\n\r\n"));
  return client.read_response();
}

/// The value of one sample line ("name{labels} 42") in a Prometheus text
/// exposition, or nullopt when the sample is absent.
std::optional<std::uint64_t> prom_value(const std::string& text, const std::string& sample) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(sample + " ", 0) == 0) return std::stoull(line.substr(sample.size() + 1));
  }
  return std::nullopt;
}

/// The sample name of one htor_live_pipeline_state gauge.
std::string pipeline_state(const std::string& state) {
  return "htor_live_pipeline_state{state=\"" + state + "\"}";
}

// --------------------------------------------------------------- fixture

/// The MRT timestamp of every record of the fixture's seed RIB.
constexpr std::uint32_t kRibTimestamp = 1281052800u;

/// On-disk inputs shared by every test: seed RIB, IRR dump, update stream.
struct LiveFiles {
  std::string dir;
  std::string rib;
  std::string irr;
  std::string updates;
  std::size_t update_count = 0;
};

const LiveFiles& files() {
  static const LiveFiles f = [] {
    LiveFiles out;
    out.dir = (std::filesystem::temp_directory_path() /
               ("htor_live_e2e_" + std::to_string(::getpid())))
                  .string();
    std::filesystem::create_directories(out.dir);
    const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
    const auto rib = net.collect();

    mrt::MrtWriter rib_writer;
    for (const auto& rec : mrt::records_from_rib(rib, 0x0a0a0a0au, "live-e2e", kRibTimestamp)) {
      rib_writer.write(rec);
    }
    out.rib = out.dir + "/rib.mrt";
    rib_writer.save(out.rib);

    out.irr = out.dir + "/irr.txt";
    std::ofstream irr(out.irr);
    irr << net.irr_dump();
    irr.flush();

    gen::UpdateScheduleParams params;
    params.events = 2500;
    const auto updates = gen::synthesize_updates(rib, params);
    mrt::MrtWriter update_writer;
    for (const auto& rec : updates) update_writer.write(rec);
    out.updates = out.dir + "/updates.mrt";
    update_writer.save(out.updates);
    out.update_count = updates.size();
    return out;
  }();
  return f;
}

FollowConfig follow_config(std::uint64_t epoch_every) {
  FollowConfig config;
  config.daemon.port = 0;  // ephemeral
  config.daemon.jobs = 2;
  config.pipeline.epoch_every = epoch_every;
  config.jobs = 1;
  return config;
}

// ------------------------------------------------------------------ tests

TEST(LiveFollowE2E, ServesQueriesWhileStreamingAndAdvancesEpochs) {
  obs::MetricsRegistry::global().reset_values();
  const LiveFiles& f = files();
  FollowService service(f.rib, f.irr, {f.updates}, follow_config(100));

  // The most-voted link of the seed census, so /v1/link answers 200 from
  // epoch 1 on.
  ThreadPool pool(1);
  const auto epoch0 = core::run_census(service.census().rib().materialize(),
                                       rpsl::load_dictionary(f.irr), core::InferenceConfig{}, pool);
  ASSERT_FALSE(epoch0.inferred.top_voted_links.empty());
  const LinkKey probe = epoch0.inferred.top_voted_links.front().link;
  ASSERT_TRUE(snapshot::QueryIndex(core::to_snapshot(epoch0, f.rib, kRibTimestamp))
                  .lookup(probe.first, probe.second));

  service.start();
  ASSERT_NE(service.port(), 0);

  // Hammer one keep-alive connection for the whole stream: every request
  // must get a complete 200 while epochs swap in underneath.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<bool> broken{false};
  const std::string request = "GET /v1/link/" + std::to_string(probe.first) + "/" +
                              std::to_string(probe.second) + " HTTP/1.1\r\n\r\n";
  std::thread hammer([&] {
    Client client(service.port());
    if (!client.connected()) {
      broken.store(true);
      return;
    }
    while (!stop.load()) {
      if (!client.send_raw(request)) {
        broken.store(true);
        return;
      }
      const auto resp = client.read_response();
      if (!resp.ok || resp.status != 200 || resp.body.empty()) {
        broken.store(true);
        return;
      }
      served.fetch_add(1);
    }
  });

  service.wait();  // update stream exhausted; daemon still serving
  stop.store(true);
  hammer.join();

  EXPECT_FALSE(broken.load()) << "a keep-alive connection broke during epoch swaps";
  EXPECT_GT(served.load(), 0u);

  const auto result = service.result();
  EXPECT_FALSE(result.stopped);
  EXPECT_EQ(result.applied, f.update_count);
  EXPECT_EQ(result.records, f.update_count);
  EXPECT_GE(service.epochs_published(), 2u);
  EXPECT_EQ(result.epochs, service.epochs_published());
  // Every publish advanced the daemon's epoch: seed epoch 1 + one per swap.
  EXPECT_EQ(service.daemon().epoch(), 1 + service.epochs_published());

  const auto health = fetch(service.port(), "GET", "/v1/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"epoch\":" + std::to_string(service.daemon().epoch())),
            std::string::npos)
      << health.body;

  // The Prometheus exposition carries the live pipeline series.
  const auto metrics = fetch(service.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  for (const char* name :
       {"htor_live_records_total", "htor_live_updates_total", "htor_live_epochs_total",
        "htor_live_routes", "htor_live_staleness_updates"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos) << "missing " << name;
  }
  EXPECT_NE(metrics.body.find("htor_live_records_total " + std::to_string(f.update_count)),
            std::string::npos)
      << "records counter should equal the stream length";
  EXPECT_EQ(prom_value(metrics.body, pipeline_state("finished")), 1u) << metrics.body;
  EXPECT_EQ(prom_value(metrics.body, pipeline_state("running")), 0u) << metrics.body;
  EXPECT_EQ(prom_value(metrics.body, pipeline_state("failed")), 0u) << metrics.body;

  service.stop();
}

// After several epochs the daemon's gauges describe the state it serves:
// each equals the index of a fresh batch census over the live RIB, not a
// sum over everything the process has ingested since it started.
TEST(LiveFollowE2E, ServedGaugesEqualAFreshCensusAfterEpochs) {
  obs::MetricsRegistry::global().reset_values();
  const LiveFiles& f = files();
  FollowService service(f.rib, f.irr, {f.updates}, follow_config(500));
  service.start();
  service.wait();
  ASSERT_GE(service.epochs_published(), 3u);

  const auto dict = rpsl::load_dictionary(f.irr);
  ThreadPool pool(1);
  const auto report =
      core::run_census(service.census().rib().materialize(), dict, core::InferenceConfig{}, pool);
  const snapshot::QueryIndex fresh(core::to_snapshot(report, f.rib, 0));

  const auto metrics = fetch(service.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(prom_value(metrics.body, "htor_served_links"), fresh.link_count());
  EXPECT_EQ(prom_value(metrics.body, "htor_served_ases"), fresh.as_count());
  EXPECT_EQ(prom_value(metrics.body, "htor_served_hybrid_links"), fresh.hybrid_count());
  service.stop();
}

// A feed that fails mid-stream reports itself: wait() rethrows the decode
// error, result() says exactly how far the stream got, the pipeline-state
// gauge reads "failed", and the daemon keeps serving the last good epoch
// while /v1/healthz answers 503 "degraded" with that error.
TEST(LiveFollowE2E, TruncatedFeedReportsItsErrorAndKeepsTheLastEpoch) {
  obs::MetricsRegistry::global().reset_values();
  const LiveFiles& f = files();
  const std::string truncated = f.dir + "/updates_truncated.mrt";
  std::filesystem::copy_file(f.updates, truncated,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(truncated, std::filesystem::file_size(f.updates) - 7);

  // Cutting 7 bytes breaks only the last record, so the feed applies every
  // complete record before it.
  std::uint64_t complete_records = 0;
  mrt::MrtStreamReader full(f.updates);
  while (full.next_update()) ++complete_records;
  ASSERT_GT(complete_records, 100u);

  FollowService service(f.rib, f.irr, {truncated}, follow_config(100));
  service.start();
  std::string error;
  try {
    service.wait();
  } catch (const DecodeError& e) {
    error = e.what();
  }
  ASSERT_FALSE(error.empty()) << "the truncated feed must fail with a DecodeError";

  const auto result = service.result();
  EXPECT_EQ(result.applied, complete_records - 1);
  EXPECT_EQ(result.applied, service.census().applied());
  EXPECT_EQ(service.epochs_published(), result.applied / 100);
  EXPECT_EQ(result.epochs, service.epochs_published());
  EXPECT_EQ(service.daemon().epoch(), 1 + service.epochs_published());

  // The last good epoch keeps serving, but health says the feed is dead.
  const auto health = fetch(service.port(), "GET", "/v1/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"epoch\":" + std::to_string(service.daemon().epoch())),
            std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find(error), std::string::npos) << health.body;
  const auto summary = fetch(service.port(), "GET", "/v1/summary");
  ASSERT_TRUE(summary.ok);
  EXPECT_EQ(summary.status, 200);

  const auto metrics = fetch(service.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(prom_value(metrics.body, pipeline_state("failed")), 1u) << metrics.body;
  EXPECT_EQ(prom_value(metrics.body, pipeline_state("running")), 0u) << metrics.body;
  EXPECT_EQ(prom_value(metrics.body, pipeline_state("finished")), 0u) << metrics.body;
  service.stop();
}

// Before any update applies, the served epoch is the batch census of the
// seed RIB: /v1/summary answers byte for byte what `serve` answers for the
// `census --snapshot-out` snapshot of the same files, the RIB's timestamp
// included.
TEST(LiveFollowE2E, EpochZeroSummaryEqualsServeOfTheBatchSnapshot) {
  obs::MetricsRegistry::global().reset_values();
  const LiveFiles& f = files();
  const std::string no_updates = f.dir + "/updates_empty.mrt";
  std::ofstream(no_updates, std::ios::binary | std::ios::trunc).close();

  FollowService service(f.rib, f.irr, {no_updates}, follow_config(100));
  service.start();
  service.wait();
  ASSERT_EQ(service.result().applied, 0u);
  const auto live = fetch(service.port(), "GET", "/v1/summary");
  service.stop();

  // What `census --snapshot-out` writes and `serve` then loads.
  ThreadPool pool(1);
  const auto report = core::run_census(core::load_rib(f.rib, pool),
                                       rpsl::load_dictionary(f.irr), core::InferenceConfig{},
                                       pool);
  const std::string snap_path = f.dir + "/batch.snap";
  snapshot::Writer::write_file(core::to_snapshot(report, f.rib, kRibTimestamp), snap_path);
  server::DaemonConfig config;
  config.port = 0;
  server::QueryDaemon daemon(snap_path, config);
  daemon.start();
  const auto batch = fetch(daemon.port(), "GET", "/v1/summary");
  daemon.stop();

  ASSERT_TRUE(live.ok && batch.ok);
  EXPECT_EQ(live.status, 200);
  EXPECT_NE(batch.body.find("\"timestamp\":" + std::to_string(kRibTimestamp)), std::string::npos)
      << batch.body;
  EXPECT_EQ(live.body, batch.body);
}

// An IRR path that cannot be read fails the service at construction, with
// the path named, instead of serving a census mined from an empty
// dictionary.
TEST(LiveFollowE2E, UnreadableIrrPathFailsConstruction) {
  const LiveFiles& f = files();
  for (const std::string& irr : {f.dir, f.dir + "/no_such_irr.txt"}) {
    try {
      FollowService service(f.rib, irr, {f.updates}, follow_config(100));
      ADD_FAILURE() << "FollowService accepted the IRR path " << irr;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(irr), std::string::npos) << e.what();
    }
  }
}

TEST(LiveFollowE2E, ReloadFailsGracefullyOnInMemoryIndex) {
  obs::MetricsRegistry::global().reset_values();
  const LiveFiles& f = files();
  FollowService service(f.rib, f.irr, {f.updates}, follow_config(0));
  service.start();
  service.wait();

  // POST /v1/reload: there is no snapshot file behind this daemon — the
  // reload must fail with a reasoned 503, not crash or swap garbage.
  const auto before = service.daemon().epoch();
  const auto resp = fetch(service.port(), "POST", "/v1/reload");
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("live in-memory index"), std::string::npos) << resp.body;
  EXPECT_EQ(service.daemon().epoch(), before) << "a failed reload must not advance the epoch";

  // The daemon keeps serving afterwards.
  const auto health = fetch(service.port(), "GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200);
  service.stop();
}

TEST(LiveFollowE2E, StopMidStreamIsCleanAndIdempotent) {
  obs::MetricsRegistry::global().reset_values();
  const LiveFiles& f = files();
  FollowService service(f.rib, f.irr, {f.updates}, follow_config(50));
  service.start();
  // Stop as early as possible: wherever the feed loop is, stop()
  // must join cleanly, and a second stop() must be a no-op.
  service.stop();
  service.stop();
  SUCCEED();
}

}  // namespace
}  // namespace htor::live
