// P1: google-benchmark microbenchmarks for the hot paths of the pipeline —
// MRT record parsing, BGP UPDATE decode, community dictionary application,
// valley checking, and the constrained (valley-free) BFS.
#include <benchmark/benchmark.h>

#include "bgp/message.hpp"
#include "core/community_inference.hpp"
#include "harness.hpp"
#include "core/census_report.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot_bridge.hpp"
#include "obs/metrics.hpp"
#include "snapshot/diff.hpp"
#include "snapshot/query.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"
#include "util/bytes.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "live/incremental_census.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "server/daemon.hpp"
#include "server/http.hpp"
#include "topology/reachability.hpp"
#include "topology/valley.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace {

using namespace htor;

/// Small shared dataset, built once.
struct DatasetBits {
  gen::SyntheticInternet net = gen::SyntheticInternet::generate(gen::small_params(3));
  mrt::ObservedRib rib = net.collect();
  std::vector<std::uint8_t> mrt_bytes;
  rpsl::CommunityDictionary dict;
  RelationshipMap rels;
  std::vector<std::vector<Asn>> paths;

  DatasetBits() {
    mrt::MrtWriter writer;
    for (const auto& rec : mrt::records_from_rib(rib, 1, "micro", 1281052800u)) {
      writer.write(rec);
    }
    mrt_bytes = writer.take();
    dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
    rels = net.truth(IpVersion::V6);
    for (const auto& route : rib.routes()) {
      if (route.af == IpVersion::V6) paths.push_back(route.as_path);
    }
  }
};

const DatasetBits& bits() {
  static const DatasetBits instance;
  return instance;
}

void BM_MrtParseRib(benchmark::State& state) {
  const auto& data = bits().mrt_bytes;
  std::uint64_t records = 0;
  for (auto _ : state) {
    mrt::MrtStreamReader reader(data);
    while (const auto raw = reader.next()) {
      auto rec = mrt::decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body);
      benchmark::DoNotOptimize(rec);
      ++records;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
  state.counters["records"] = static_cast<double>(records) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MrtParseRib);

void BM_BgpUpdateRoundTrip(benchmark::State& state) {
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::Igp;
  attrs.as_path = bgp::AsPath::sequence({64500, 3356, 1299, 20940});
  attrs.local_pref = 120;
  attrs.communities = {bgp::Community(3356, 100), bgp::Community(1299, 2000)};
  const auto update = bgp::make_ipv6_update(attrs, IpAddress::parse("2001:db8::1"),
                                            {Prefix::parse("2001:db8:1000::/48")});
  for (auto _ : state) {
    const auto bytes = bgp::encode_message(update);
    ByteReader reader(bytes);
    auto decoded = bgp::decode_message(reader);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_BgpUpdateRoundTrip);

void BM_CommunityInference(benchmark::State& state) {
  const auto routes = bits().rib.routes_of(IpVersion::V6);
  for (auto _ : state) {
    auto result = core::infer_from_communities(routes, bits().dict);
    benchmark::DoNotOptimize(result);
  }
  state.counters["routes"] = static_cast<double>(routes.size());
}
BENCHMARK(BM_CommunityInference);

// The inference stage of the census (both families, communities + Rosetta)
// with the route scans sharded over a pool — Arg is the job count, so the
// speedup over /1 is the parallelization win on this machine.
void BM_InferRelationships(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(jobs);
  for (auto _ : state) {
    auto result = core::infer_relationships(bits().rib, bits().dict, {}, pool);
    benchmark::DoNotOptimize(result);
  }
  state.counters["routes"] = static_cast<double>(bits().rib.size());
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_InferRelationships)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The path table of both families, as the census builds it: routes staged
// by hash partition, one table build per partition, the parts joined, and
// the sorted link list.  Arg is the job count.
void BM_PathsOf(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto v4 = core::paths_of(bits().rib, IpVersion::V4, pool);
    const auto v6 = core::paths_of(bits().rib, IpVersion::V6, pool);
    auto links = v4.links();
    benchmark::DoNotOptimize(links);
    links = v6.links();
    benchmark::DoNotOptimize(links);
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PathsOf)->Arg(1)->Arg(4)->UseRealTime();

// Full census (path stores, inference, hybrids, valley census) across job
// counts; reports are byte-identical, only wall time changes.
void BM_RunCensus(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto report = core::run_census(bits().rib, bits().dict, {}, pool);
    benchmark::DoNotOptimize(report);
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RunCensus)->Arg(1)->Arg(4)->UseRealTime();

// --- ingest ------------------------------------------------------------------
//
// Peak RSS is a per-process high-water mark, so measuring ingest in the
// bench process would let whatever ran earlier poison the number.  Each
// iteration forks a child that performs ONE ingest of the bench RIB and
// reports its own ru_maxrss back through a pipe.  A forked child still
// inherits the parent's resident COW pages, so an idle-child baseline is
// probed once and subtracted — peak_rss_mb is the ingest's own high-water
// delta.  Counters: peak_rss_mb, routes (joined count, correctness canary).
#if defined(__unix__)

/// On-disk bench RIB, written once per process (PID-suffixed so concurrent
/// bench runs never race on the file).  Larger than the unit-test dumps so
/// the ingest's batch and RIB memory actually show up in RSS.
const std::string& bench_rib_path() {
  static const std::string path = [] {
    const auto net = gen::SyntheticInternet::generate(gen::small_params(11));
    mrt::MrtWriter writer;
    // Repeat the dump so the file has enough records for several stream
    // batches; repeated PEER_INDEX_TABLEs are legal (each governs the
    // records that follow it) and keep the RIB join meaningful.
    const auto records = mrt::records_from_rib(net.collect(), 1, "ingest", 1281052800u);
    for (int copy = 0; copy < 8; ++copy) {
      for (const auto& rec : records) writer.write(rec);
    }
    std::string p = "/tmp/hybridtor_bench_ingest." + std::to_string(getpid()) + ".mrt";
    writer.save(p);
    return p;
  }();
  // Registered after `path` completes initialization, so the handler runs
  // before the string's destructor at exit.
  static const bool cleanup = [] {
    std::atexit([] { std::remove(bench_rib_path().c_str()); });
    return true;
  }();
  (void)cleanup;
  return path;
}

struct IngestProbe {
  long peak_rss_kb = 0;
  std::uint64_t routes = 0;
};

/// Run `ingest` in a forked child; returns the child's peak RSS and the
/// route count it observed.
template <typename Ingest>
IngestProbe probe_ingest_in_child(Ingest ingest) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    IngestProbe probe;
    probe.routes = ingest();
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    probe.peak_rss_kb = usage.ru_maxrss;
    ssize_t written = write(fds[1], &probe, sizeof(probe));
    _exit(written == sizeof(probe) ? 0 : 1);
  }
  close(fds[1]);
  IngestProbe probe;
  const ssize_t got = read(fds[0], &probe, sizeof(probe));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(probe) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("ingest child failed");
  }
  return probe;
}

/// High-water of a child that ingests nothing: the resident pages inherited
/// from the parent at fork.  Probed lazily (after the parent's fixtures for
/// earlier benchmarks exist) and subtracted from every ingest measurement.
long idle_child_rss_kb() {
  return probe_ingest_in_child([] { return std::uint64_t{0}; }).peak_rss_kb;
}

double ingest_delta_mb(const IngestProbe& probe) {
  const long delta = probe.peak_rss_kb - idle_child_rss_kb();
  return static_cast<double>(delta > 0 ? delta : 0) / 1024.0;
}

void BM_IngestStreaming(benchmark::State& state) {
  const std::string path = bench_rib_path();
  const auto jobs = static_cast<std::size_t>(state.range(0));
  IngestProbe last;
  for (auto _ : state) {
    last = probe_ingest_in_child([&] {
      ThreadPool pool(jobs);
      return static_cast<std::uint64_t>(mrt::rib_from_stream(path, pool).size());
    });
    benchmark::DoNotOptimize(last);
  }
  state.counters["peak_rss_mb"] = ingest_delta_mb(last);
  state.counters["routes"] = static_cast<double>(last.routes);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_IngestStreaming)->Arg(1)->Arg(4)->UseRealTime();

#endif  // __unix__

void BM_ValleyCheck(benchmark::State& state) {
  const auto& rels = bits().rels;
  const auto& paths = bits().paths;
  std::size_t i = 0;
  for (auto _ : state) {
    auto result = check_valley_free(paths[i % paths.size()], rels);
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_ValleyCheck);

void BM_ConstrainedBfs(benchmark::State& state) {
  const auto& net = bits().net;
  ValleyFreeRouting vf(net.graph(), net.truth(IpVersion::V6), IpVersion::V6);
  const auto ases = net.v6_ases();
  std::size_t i = 0;
  for (auto _ : state) {
    auto dist = vf.distances_from(ases[i % ases.size()]);
    benchmark::DoNotOptimize(dist);
    ++i;
  }
  state.counters["nodes"] = static_cast<double>(vf.node_count());
}
BENCHMARK(BM_ConstrainedBfs);

void BM_DictionaryMining(benchmark::State& state) {
  const std::string irr = bits().net.irr_dump();
  for (auto _ : state) {
    auto dict = rpsl::mine_dictionary(rpsl::parse_objects(irr));
    benchmark::DoNotOptimize(dict);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * irr.size()));
}
BENCHMARK(BM_DictionaryMining);

// --- live apply --------------------------------------------------------------

/// Deterministic BGP4MP update stream over the shared dataset, decoded
/// once for the apply bench.
using LiveMessages = std::vector<std::pair<std::uint32_t, mrt::Bgp4mpMessage>>;

const LiveMessages& live_messages() {
  static const LiveMessages instance = [] {
    LiveMessages out;
    gen::UpdateScheduleParams params;
    params.events = 2000;
    for (const auto& rec : gen::synthesize_updates(bits().rib, params)) {
      out.emplace_back(rec.timestamp, std::get<mrt::Bgp4mpMessage>(rec.body));
    }
    return out;
  }();
  return instance;
}

/// Per-message cost of live apply: one BGP4MP update folded into the keyed
/// RIB and the epoch's churn sets — the work `follow` pays per update
/// between epochs, with no epoch recompute.  Cycling the schedule keeps the
/// census in steady churn (the announce/replace/duplicate/withdraw mix of
/// the stream) rather than growing without bound.
void BM_LiveApply(benchmark::State& state) {
  core::InferenceConfig config;
  live::IncrementalCensus census(bits().rib, bits().dict, config, "bench", 1281052800u);
  const auto& messages = live_messages();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [timestamp, msg] = messages[i % messages.size()];
    census.apply(timestamp, msg);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routes"] = static_cast<double>(census.rib().size());
}
BENCHMARK(BM_LiveApply);

// One live epoch as `follow` cuts it: 1000 messages applied (untimed), then
// recompute() — the fold of those changes into the sorted table plus the
// census over it and the snapshot.  Arg is the job count; the time minus
// BM_RunCensus at the same Arg is what the fold and snapshot cost.
void BM_LiveEpoch(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  live::IncrementalCensus census(bits().rib, bits().dict, {}, "bench", 1281052800u);
  const auto& messages = live_messages();
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int n = 0; n < 1000; ++n, ++i) {
      const auto& [timestamp, msg] = messages[i % messages.size()];
      census.apply(timestamp, msg);
    }
    state.ResumeTiming();
    auto epoch = census.recompute(pool);
    benchmark::DoNotOptimize(epoch);
  }
  state.counters["routes"] = static_cast<double>(census.rib().size());
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_LiveEpoch)->Arg(1)->Arg(4)->UseRealTime();

// --- snapshot store ----------------------------------------------------------

/// Census snapshot of the shared dataset, built once.
const snapshot::Snapshot& snapshot_fixture() {
  static const snapshot::Snapshot snap = [] {
    ThreadPool pool;
    const auto report = core::run_census(bits().rib, bits().dict, {}, pool);
    return core::to_snapshot(report, "bench/rib.mrt", 1281052800u);
  }();
  return snap;
}

void BM_SnapshotWrite(benchmark::State& state) {
  const auto& snap = snapshot_fixture();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = snapshot::Writer::encode(snap);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.counters["links_v4"] = static_cast<double>(snap.rels_v4.size());
  state.counters["links_v6"] = static_cast<double>(snap.rels_v6.size());
}
BENCHMARK(BM_SnapshotWrite);

void BM_SnapshotRead(benchmark::State& state) {
  const auto bytes = snapshot::Writer::encode(snapshot_fixture());
  for (auto _ : state) {
    auto snap = snapshot::Reader::decode(bytes);
    benchmark::DoNotOptimize(snap);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_SnapshotRead);

void BM_SnapshotDiff(benchmark::State& state) {
  const auto& a = snapshot_fixture();
  // Perturbed copy: flip, drop, and widow links so every churn bucket does
  // real work instead of degenerating to the all-unchanged fast path.
  static const snapshot::Snapshot b = [&] {
    snapshot::Snapshot copy = a;
    std::size_t i = 0;
    for (const auto& [link, rel] : snapshot::sorted_entries(a.rels_v6)) {
      if (i % 7 == 0) {
        copy.rels_v6.set(link.first, link.second,
                         rel == Relationship::P2P ? Relationship::P2C : Relationship::P2P);
      } else if (i % 11 == 0) {
        copy.rels_v6.erase(link.first, link.second);
      }
      ++i;
    }
    return copy;
  }();
  std::uint64_t churn = 0;
  for (auto _ : state) {
    auto diff = snapshot::diff_snapshots(a, b);
    churn = diff.total_churn();
    benchmark::DoNotOptimize(diff);
  }
  state.counters["churn"] = static_cast<double>(churn);
}
BENCHMARK(BM_SnapshotDiff);

/// Daemon hot-reload cost: QueryIndex::open() is exactly what reload()
/// runs — read + validate + wrap, with no per-entry decode.
void BM_SnapshotMapReload(benchmark::State& state) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("htor_bench_reload_" + std::to_string(::getpid()) + ".snap"))
                               .string();
  const auto bytes = snapshot::Writer::encode(snapshot_fixture());
  save_bytes(path, bytes);
  for (auto _ : state) {
    auto index = snapshot::QueryIndex::open(path);
    benchmark::DoNotOptimize(index);
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_SnapshotMapReload);

// --- observability -----------------------------------------------------------

/// The registry's core promise: a hot-path increment is a few nanoseconds
/// (one thread-local load, one relaxed fetch_add on a private cache line).
/// The <10ns budget here is what lets ingest count every record and the
/// daemon count every request without showing up in BM_ServeRouting.
void BM_MetricsIncrement(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("bench_increments");
  for (auto _ : state) {
    counter.inc();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsIncrement);

/// Histogram record: bucket math plus two relaxed adds.
void BM_MetricsHistogramRecord(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Histogram hist = registry.histogram("bench_latency");
  std::uint64_t v = 0;
  for (auto _ : state) {
    hist.record(v++ & 0xFFFF);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramRecord);

/// Full Prometheus render of a registry about the size the daemon carries
/// (a few dozen series): shard merges plus text formatting.  Scrapes are
/// rare (seconds apart) so milliseconds would be fine; it measures µs.
void BM_MetricsScrape(benchmark::State& state) {
  static obs::MetricsRegistry* registry = [] {
    auto* reg = new obs::MetricsRegistry();
    for (int e = 0; e < 8; ++e) {
      reg->counter("bench_http_requests_total",
                   {{"endpoint", "ep" + std::to_string(e)}})
          .inc(100 + e);
    }
    for (int s = 0; s < 4; ++s) {
      reg->counter("bench_http_responses_total",
                   {{"class", std::to_string(s + 2) + "xx"}})
          .inc(10);
    }
    for (int h = 0; h < 8; ++h) {
      obs::Histogram hist =
          reg->histogram("bench_stage_duration_us",
                         {{"stage", "stage" + std::to_string(h)}});
      for (std::uint64_t v = 1; v < 1000; v *= 3) hist.record(v);
    }
    reg->gauge("bench_epoch").set(3);
    return reg;
  }();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto text = registry->render_prometheus();
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_MetricsScrape);

// --- query daemon ------------------------------------------------------------

#if defined(__unix__)

/// A started daemon over the census snapshot, shared by every measurement.
/// jobs = 4 so concurrent closed-loop clients actually overlap.
server::QueryDaemon& serve_fixture() {
  static server::QueryDaemon* daemon = [] {
    static const std::string path =
        (std::filesystem::temp_directory_path() /
         ("htor_bench_serve_" + std::to_string(::getpid()) + ".snap"))
            .string();
    snapshot::Writer::write_file(snapshot_fixture(), path);
    server::DaemonConfig config;
    config.port = 0;  // ephemeral
    config.jobs = 4;
    auto* d = new server::QueryDaemon(path, config);
    d->start();
    return d;
  }();
  return *daemon;
}

/// In-process routing cost: parse-free request -> response, no sockets.
/// The gap between this and BM_ServeThroughput is the transport.
void BM_ServeRouting(benchmark::State& state) {
  auto& daemon = serve_fixture();
  const auto entries = snapshot::sorted_entries(snapshot_fixture().rels_v4);
  server::HttpRequest request;
  request.method = "GET";
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& link = entries[i % entries.size()].first;
    request.target = "/v1/link/" + std::to_string(link.first) + "/" +
                     std::to_string(link.second);
    auto resp = daemon.handle(request);
    benchmark::DoNotOptimize(resp);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeRouting);

/// Closed-loop load generator over loopback: each benchmark thread holds
/// one keep-alive connection and plays one request/response round trip per
/// iteration, so items_per_second is the daemon's requests/sec at that
/// concurrency.
void BM_ServeThroughput(benchmark::State& state) {
  auto& daemon = serve_fixture();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    state.SkipWithError("cannot connect to the bench daemon");
    return;
  }
  const auto entries = snapshot::sorted_entries(snapshot_fixture().rels_v4);
  const auto& link = entries[entries.size() / 2].first;
  const std::string request = "GET /v1/link/" + std::to_string(link.first) + "/" +
                              std::to_string(link.second) + " HTTP/1.1\r\n\r\n";
  std::string buffer;
  char chunk[8192];
  for (auto _ : state) {
    std::string_view out = request;
    while (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        state.SkipWithError("send failed");
        ::close(fd);
        return;
      }
      out.remove_prefix(static_cast<std::size_t>(n));
    }
    // Consume exactly one response: header block, then Content-Length body.
    std::size_t header_end = std::string::npos;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        state.SkipWithError("daemon closed the connection");
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t content_length = 0;
    const auto cl = buffer.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      content_length = static_cast<std::size_t>(std::atol(buffer.c_str() + cl + 16));
    }
    const std::size_t total = header_end + 4 + content_length;
    while (buffer.size() < total) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        state.SkipWithError("daemon closed mid-body");
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    buffer.erase(0, total);
  }
  ::close(fd);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["connections"] = benchmark::Counter(static_cast<double>(state.threads()),
                                                     benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ServeThroughput)->Threads(1)->Threads(4)->UseRealTime();

#endif  // __unix__

}  // namespace

BENCHMARK_MAIN();
