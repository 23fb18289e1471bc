// Concurrency stress suite — written to be run under ThreadSanitizer.
//
// Functionally these tests assert ordinary invariants (statuses sane, epochs
// monotonic, every submitted task ran); their real job is to generate the
// interleavings TSan needs to prove the absence of data races in the
// daemon's hot-reload state swap, the connection pump's worker hand-off,
// overlapping shard_map calls on one ThreadPool, two whole censuses
// sharing one two-worker pool, pool shutdown ordering, and — since the
// live subsystem landed — the live feed's cooperative
// shutdown and serve --follow's epoch swap_index() racing direct handle()
// storms.  Removing the
// state_mutex_ lock around QueryDaemon's shared_ptr swap makes
// DirectHandleStormRacesReload fail under TSan within milliseconds
// (verified once by hand; see CHANGES.md for PR 6).
//
// Budgets are deliberately modest: the suite must stay fast enough for the
// plain unit loop while still giving a sanitizer thousands of cross-thread
// handoffs to inspect.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/census_report.hpp"
#include "core/hybrid.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "live/follow.hpp"
#include "live/pipeline.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "server/daemon.hpp"
#include "snapshot/query.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/writer.hpp"
#include "util/thread_pool.hpp"

namespace htor {
namespace {

using server::DaemonConfig;
using server::HttpRequest;
using server::QueryDaemon;

// ------------------------------------------------------------ fixtures

/// Two observably different snapshots: flavor A makes link 1-2 hybrid,
/// flavor B resolves it, so a reload is visible in responses.
snapshot::Snapshot make_snapshot(bool flavor_a) {
  snapshot::Snapshot snap;
  snap.header.timestamp = flavor_a ? 1700000000u : 1700086400u;
  snap.header.source = flavor_a ? "stress-a.mrt" : "stress-b.mrt";
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

/// Atomically replace `path` with `snap` (write-to-temp + rename) so a
/// concurrent reload() never reads a torn file — torn-file handling has its
/// own test below.
void swap_snapshot_file(const std::string& path, const snapshot::Snapshot& snap) {
  const std::string tmp = path + ".tmp";
  snapshot::Writer::write_file(snap, tmp);
  std::filesystem::rename(tmp, path);
}

HttpRequest get(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  return request;
}

class ConcurrencyStress : public ::testing::Test {
 protected:
  void SetUp() override {
    snap_path_ = (std::filesystem::temp_directory_path() /
                  ("htor_stress_" + std::to_string(::getpid()) + ".snap"))
                     .string();
    swap_snapshot_file(snap_path_, make_snapshot(true));
  }
  void TearDown() override {
    std::filesystem::remove(snap_path_);
    std::filesystem::remove(snap_path_ + ".tmp");
  }

  std::string snap_path_;
};

// ------------------------------------------------- daemon state-swap races

// The prime suspect from the issue: QueryDaemon::reload() swapping the
// state_ shared_ptr while reader threads copy it in current().  handle() is
// driven directly (no sockets) so the threads spend all their time on the
// swap path, which is exactly what gives TSan its interleavings.  Removing
// the state_mutex_ guard makes this test fail under TSan.
TEST_F(ConcurrencyStress, DirectHandleStormRacesReload) {
  DaemonConfig config;
  config.jobs = 2;
  QueryDaemon daemon(snap_path_, config);  // not start()ed: no sockets needed

  constexpr int kReaderThreads = 4;
  constexpr int kRequestsPerThread = 400;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&daemon, &go, &failures, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const auto& target = (i + t) % 3 == 0   ? "/v1/link/1/2"
                             : (i + t) % 3 == 1 ? "/v1/summary"
                                                : "/v1/metrics";
        const auto resp = daemon.handle(get(target));
        if (resp.status != 200) failures.fetch_add(1, std::memory_order_relaxed);
        // Epochs a single thread observes never go backwards: a reload
        // that published state N must not be followed by a read of N-1.
        const auto epoch = daemon.epoch();
        if (epoch < last_epoch) failures.fetch_add(1, std::memory_order_relaxed);
        last_epoch = epoch;
      }
    });
  }

  std::thread reloader([this, &daemon, &go] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 60; ++i) {
      swap_snapshot_file(snap_path_, make_snapshot(i % 2 == 1));
      EXPECT_TRUE(daemon.reload());
    }
  });

  go.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  reloader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon.epoch(), 61u);  // initial load + 60 reloads
}

// reload() called concurrently from many threads (the POST /v1/reload path:
// several clients can hit it at once) interleaved with request_reload()
// (the SIGHUP path).  reload_mutex_ must serialize the decodes and the
// epoch must advance exactly once per successful reload.
TEST_F(ConcurrencyStress, ConcurrentReloadersSerializeCleanly) {
  DaemonConfig config;
  config.jobs = 2;
  QueryDaemon daemon(snap_path_, config);

  constexpr int kThreads = 4;
  constexpr int kReloadsPerThread = 25;
  std::atomic<bool> go{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> reloaders;
  for (int t = 0; t < kThreads; ++t) {
    reloaders.emplace_back([&daemon, &go, &ok] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kReloadsPerThread; ++i) {
        daemon.request_reload();  // flag-only path must stay benign
        if (daemon.reload()) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : reloaders) thread.join();

  EXPECT_EQ(ok.load(), kThreads * kReloadsPerThread);
  EXPECT_EQ(daemon.epoch(), 1u + kThreads * kReloadsPerThread);
}

// ------------------------------------------------- mapped-view lifetimes

// Views over a mapped v2 image must outlive both the serving-pointer swap
// (the daemon's reload pattern) and the rename-replacement of the file they
// were mapped from: the mmap pins the old inode until the last view drops,
// and the unmap then happens on whichever reader thread dropped last.  The
// readers stagger their drops so TSan gets to inspect unmap-after-last-
// reader racing fresh maps of the replaced file.
TEST_F(ConcurrencyStress, MappedViewsOutliveServingSwapAndFileReplacement) {
  auto initial = std::make_shared<const snapshot::QueryIndex>(
      snapshot::QueryIndex::open_mapped(snap_path_));
  ASSERT_TRUE(initial->is_mapped());

  std::mutex serving_mutex;
  std::shared_ptr<const snapshot::QueryIndex> serving = initial;
  auto current = [&serving_mutex, &serving] {
    std::lock_guard<std::mutex> lock(serving_mutex);
    return serving;
  };

  constexpr int kReaderThreads = 4;
  constexpr int kIterations = 300;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    // `old_view` is copied here, before the spawn, so the main thread's
    // later initial.reset() touches a different shared_ptr object.
    readers.emplace_back([&, t, old_view = initial]() mutable {
      const int drop_at = kIterations / 2 + t * 29;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kIterations; ++i) {
        if (old_view) {
          // The old view keeps answering from the snapshot it was opened
          // on, no matter what happened to the path since.
          const auto link = old_view->lookup(1, 2);
          if (old_view->timestamp() != 1700000000u || !link || !link->hybrid) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (i == drop_at) old_view.reset();  // staggered unmap candidates
        const auto now = current();
        const auto link = now->lookup(1, 2);
        if (!link || now->link_count() == 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread swapper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 40; ++i) {
      swap_snapshot_file(snap_path_, make_snapshot(i % 2 == 1));
      auto next = std::make_shared<const snapshot::QueryIndex>(
          snapshot::QueryIndex::open_mapped(snap_path_));
      std::lock_guard<std::mutex> lock(serving_mutex);
      serving = std::move(next);
    }
  });

  initial.reset();  // only reader threads keep the original image alive now
  go.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  swapper.join();

  EXPECT_EQ(failures.load(), 0);
}

// A reload that races a writer mid-rewrite of the snapshot file must either
// succeed on a complete file or fail cleanly and keep the old state — never
// crash, never serve a half-decoded snapshot.  The writer tears v2 bytes
// (Writer::encode emits v2), so this is the torn-flat-layout case: the
// daemon's owned-bytes reload must validate the whole image before the swap
// and never expose a partial view.
TEST_F(ConcurrencyStress, TornSnapshotFileNeverServesPartially) {
  DaemonConfig config;
  config.jobs = 2;
  QueryDaemon daemon(snap_path_, config);

  std::atomic<bool> stop_writer{false};
  std::thread writer([this, &stop_writer] {
    const auto bytes = snapshot::Writer::encode(make_snapshot(false));
    while (!stop_writer.load(std::memory_order_acquire)) {
      // Deliberately non-atomic rewrite: truncate, then two partial writes.
      std::ofstream out(snap_path_, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size() / 2));
      out.flush();
      out.write(reinterpret_cast<const char*>(bytes.data() + bytes.size() / 2),
                static_cast<std::streamsize>(bytes.size() - bytes.size() / 2));
    }
  });

  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 50; ++i) {
    if (daemon.reload()) {
      ++ok;
    } else {
      ++failed;
      EXPECT_FALSE(daemon.last_reload_error().empty());
    }
    // Whatever the reload outcome, the daemon keeps answering coherently.
    EXPECT_EQ(daemon.handle(get("/v1/summary")).status, 200);
  }
  stop_writer.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(ok + failed, 50);
}

// ------------------------------------------------- socket-level free-for-all

// Real sockets, keep-alive clients, reloads and stop() all at once: the
// closest the unit loop gets to production traffic.  Exercises the pump's
// yield/re-enqueue hand-off (worker ownership of a Connection migrates
// between pool threads) under load.
TEST_F(ConcurrencyStress, SocketClientsRaceHotReloadAndShutdown) {
  DaemonConfig config;
  config.port = 0;
  config.jobs = 3;
  auto daemon = std::make_unique<QueryDaemon>(snap_path_, config);
  daemon->start();
  const std::uint16_t port = daemon->port();
  ASSERT_NE(port, 0);

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 40;
  std::atomic<int> transport_errors{0};
  std::atomic<int> bad_statuses{0};

  auto client_loop = [&](int id) {
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        transport_errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::string target = (i + id) % 2 == 0 ? "/v1/link/1/2" : "/v1/healthz";
      const std::string request = "GET " + target + " HTTP/1.1\r\nConnection: close\r\n\r\n";
      if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(request.size())) {
        ::close(fd);
        transport_errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::string reply;
      char buf[2048];
      ssize_t n = 0;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) reply.append(buf, std::size_t(n));
      ::close(fd);
      if (reply.rfind("HTTP/1.1 200", 0) != 0) {
        bad_statuses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);

  for (int i = 0; i < 10; ++i) {
    swap_snapshot_file(snap_path_, make_snapshot(i % 2 == 1));
    EXPECT_TRUE(daemon->reload());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  for (auto& client : clients) client.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(bad_statuses.load(), 0);

  // Shutdown ordering: destroy the daemon (stop + quiesce + pool teardown)
  // immediately after traffic with no settling sleep.
  daemon.reset();
}

// stop() while clients hold half-written requests: the pump must observe
// stop_ on its next tick and the destructor must quiesce without waiting on
// the idle timeout or deadlocking against self-re-enqueued pump tasks.
TEST_F(ConcurrencyStress, StopWithIdleAndHalfOpenConnectionsQuiesces) {
  DaemonConfig config;
  config.port = 0;
  config.jobs = 2;
  config.idle_timeout_ms = 60000;  // stop() must NOT need the idle reaper
  QueryDaemon daemon(snap_path_, config);
  daemon.start();

  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    if (i % 2 == 0) {
      // Half a request: the parser is mid-request-line when stop arrives.
      const std::string partial = "GET /v1/lin";
      ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(partial.size()));
    }
    fds.push_back(fd);
  }
  // Give the acceptor a tick to hand the connections to the pool.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  daemon.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 10);
  for (int fd : fds) ::close(fd);
}

// --------------------------------------------------- live pipeline races

/// On-disk inputs for the live-pipeline stress tests: seed RIB, IRR dump,
/// and a deterministic update stream, built once per process.
struct LiveStressWorld {
  std::string dir;
  std::string rib_path;
  std::string irr_path;
  std::string updates_path;
  mrt::ObservedRib rib;
  rpsl::CommunityDictionary dict;
  std::size_t update_count = 0;
};

const LiveStressWorld& live_world() {
  static const LiveStressWorld w = [] {
    LiveStressWorld out;
    out.dir = (std::filesystem::temp_directory_path() /
               ("htor_stress_live_" + std::to_string(::getpid())))
                  .string();
    std::filesystem::create_directories(out.dir);
    const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
    out.rib = net.collect();
    out.dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));

    mrt::MrtWriter rib_writer;
    for (const auto& rec : mrt::records_from_rib(out.rib, 1, "stress-live", 1281052800u)) {
      rib_writer.write(rec);
    }
    out.rib_path = out.dir + "/rib.mrt";
    rib_writer.save(out.rib_path);

    out.irr_path = out.dir + "/irr.txt";
    std::ofstream irr(out.irr_path);
    irr << net.irr_dump();
    irr.flush();

    gen::UpdateScheduleParams params;
    params.events = 1000;
    const auto updates = gen::synthesize_updates(out.rib, params);
    mrt::MrtWriter update_writer;
    for (const auto& rec : updates) update_writer.write(rec);
    out.updates_path = out.dir + "/updates.mrt";
    update_writer.save(out.updates_path);
    out.update_count = updates.size();
    return out;
  }();
  return w;
}

// request_stop() from another thread while the feed loop runs: the flag is
// polled once per message, and the quadratically staggered delay walks it
// across the loop's states — before the first record, mid-apply, inside an
// epoch recompute, after the stream ends — while TSan watches the handoff.
TEST(LivePipelineStress, RequestStopRacesTheFeedLoop) {
  const auto& w = live_world();
  core::InferenceConfig config;
  ThreadPool pool(2);

  for (int round = 0; round < 8; ++round) {
    live::IncrementalCensus census(w.rib, w.dict, config, "stress-live", 1281052800u);
    live::PipelineConfig pipeline_config;
    pipeline_config.epoch_every = 200;
    live::Pipeline pipeline(census, pipeline_config);

    std::atomic<bool> go{false};
    std::thread stopper([&pipeline, &go, round] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(150 * round * round));
      pipeline.request_stop();
    });

    std::uint64_t epochs_seen = 0;
    go.store(true, std::memory_order_release);
    const auto result = pipeline.run(
        {w.updates_path}, pool, [&epochs_seen](const live::EpochReport&) { ++epochs_seen; });
    stopper.join();

    // Whether the run was cut short or completed, its books must balance:
    // every applied message reached the census, every cut epoch reached the
    // callback, and a run that was NOT stopped applied the whole stream.
    EXPECT_EQ(result.epochs, epochs_seen) << "round " << round;
    EXPECT_EQ(result.applied, census.applied()) << "round " << round;
    EXPECT_LE(result.applied, w.update_count) << "round " << round;
    if (!result.stopped) {
      EXPECT_EQ(result.applied, w.update_count) << "round " << round;
    }
  }
}

// The serve --follow swap path: the pipeline thread publishes a fresh
// QueryIndex through swap_index() on every cut epoch while reader threads
// copy the serving state through handle().  Driven directly (no sockets) so
// the readers spend all their time on the swap — the same shape as
// DirectHandleStormRacesReload, but with the daemon's state replaced from
// the pipeline thread instead of reload()'s file path.
TEST(LivePipelineStress, FollowEpochSwapsRaceDirectHandleStorm) {
  const auto& w = live_world();
  live::FollowConfig config;
  config.daemon.port = 0;
  config.daemon.jobs = 2;
  config.pipeline.epoch_every = 80;
  config.jobs = 1;
  live::FollowService service(w.rib_path, w.irr_path, {w.updates_path}, config);
  service.start();

  constexpr int kReaderThreads = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&service, &stop, &failures, t] {
      std::uint64_t last_epoch = 0;
      for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const auto& target = (i + t) % 3 == 0   ? "/v1/summary"
                             : (i + t) % 3 == 1 ? "/v1/healthz"
                                                : "/v1/metrics";
        const auto resp = service.daemon().handle(get(target));
        if (resp.status != 200) failures.fetch_add(1, std::memory_order_relaxed);
        // Epoch swaps must look monotonic from any single reader.
        const auto epoch = service.daemon().epoch();
        if (epoch < last_epoch) failures.fetch_add(1, std::memory_order_relaxed);
        last_epoch = epoch;
      }
    });
  }

  service.wait();  // stream exhausted; readers saw every swap go by
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  const auto result = service.result();
  EXPECT_FALSE(result.stopped);
  EXPECT_EQ(result.applied, w.update_count);
  EXPECT_GE(service.epochs_published(), 2u);
  EXPECT_EQ(service.daemon().epoch(), 1 + service.epochs_published());
  service.stop();
}

// --------------------------------------------------- thread pool / parallel

// Readers share one built path table without a lock: four threads list its
// links, look up every link's path count and walk its paths at once, from
// the first read on, and each sees what a separately built table holds.
TEST(PathStoreStress, ConcurrentReadersOfOneTable) {
  mrt::ObservedRib rib;
  for (Asn i = 0; i < 3000; ++i) {
    mrt::ObservedRoute route;
    route.as_path = {1 + i % 7, 100 + i % 13, 100 + i % 13, 1000 + i % 101};
    rib.add(std::move(route));
  }
  ThreadPool pool(4);
  const PathStore reference = core::paths_of(rib, IpVersion::V4, pool);
  const std::vector<LinkKey> links = reference.links();
  std::uint64_t link_paths = 0;
  for (const LinkKey& link : links) link_paths += reference.paths_containing(link.first, link.second);
  ASSERT_GT(link_paths, 0u);

  const PathStore table = core::paths_of(rib, IpVersion::V4, pool);
  std::atomic<bool> go{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < 20; ++round) {
        std::uint64_t counted = 0;
        for (const LinkKey& link : links) counted += table.paths_containing(link.first, link.second);
        std::uint64_t occurrences = 0;
        table.for_each([&occurrences](std::span<const Asn>, std::uint64_t count) {
          occurrences += count;
        });
        if (table.links() != links || counted != link_paths ||
            occurrences != reference.total_occurrences()) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0);
}

// Overlapping shard_map calls on one shared pool, from multiple threads at
// once — the census pipeline does exactly this when both address families
// are inferred in flight.  Results must be correct and the merge order
// deterministic regardless of interleaving.
TEST(ThreadPoolStress, OverlappingShardMapsComputeCorrectSums) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  constexpr std::size_t kN = 1000;
  const std::uint64_t expected = kN * (kN - 1) / 2;

  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &wrong] {
      for (int round = 0; round < kRounds; ++round) {
        const auto total = core::shard_map_reduce(
            pool, kN,
            [](core::ShardRange range) {
              std::uint64_t sum = 0;
              for (std::size_t i = range.begin; i < range.end; ++i) sum += i;
              return sum;
            },
            std::uint64_t{0}, [](std::uint64_t& acc, std::uint64_t part) { acc += part; });
        if (total != expected) wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

// Shutdown ordering: a pool destroyed right after a burst of submits must
// run every queued task before joining (the destructor drains the queue);
// no task may be dropped and no future left dangling.
TEST(ThreadPoolStress, DestructorDrainsQueuedTasks) {
  for (int round = 0; round < 30; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(2 + round % 3);
      for (int i = 0; i < 50; ++i) {
        // Futures intentionally discarded: the pool, not the caller, owns
        // completion here.
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }  // ~ThreadPool: stop flag + drain + join
    EXPECT_EQ(ran.load(), 50) << "round " << round;
  }
}

// Exceptions crossing the pool boundary while other shards are still
// running: shard_map must drain every future before rethrowing, so no
// worker can touch caller-owned state after the call returns.
TEST(ThreadPoolStress, ShardExceptionsDrainBeforeRethrow) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> owned(512, 1);  // caller-owned: must outlive all shards
    bool threw = false;
    try {
      core::shard_map(pool, owned.size(), [&owned, round](core::ShardRange range) {
        int sum = 0;
        for (std::size_t i = range.begin; i < range.end; ++i) sum += owned[i];
        if (range.index == static_cast<std::size_t>(round % 8)) {
          throw std::runtime_error("shard failure injection");
        }
        return sum;
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }
}

// Two batch censuses share one two-worker pool, each from its own thread,
// several times over.  Every stage waits for its tasks on the calling
// thread; a pool task that waited on a future of its own pool would, with
// both workers taken by such tasks, hang here.  Each census must equal a
// jobs-1 census, byte for byte.
TEST(ThreadPoolStress, TwoCensusesShareATwoWorkerPool) {
  const auto& w = live_world();
  const auto census_bytes = [&w](ThreadPool& pool) {
    const auto rib = core::load_rib(w.rib_path, pool);
    const auto report = core::run_census(rib, w.dict, core::InferenceConfig{}, pool);
    return snapshot::Writer::encode(core::to_snapshot(report, "shared-pool", 0));
  };
  ThreadPool inline_pool(1);
  const auto reference = census_bytes(inline_pool);

  ThreadPool pool(2);
  constexpr int kCallers = 2;
  constexpr int kRounds = 3;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        if (census_bytes(pool) != reference) wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace htor
