// Regenerates the committed fuzz seed corpora under tests/fuzz/corpus/.
//
//   fuzz_make_corpus <corpus_root>
//
// The seeds are deterministic (fixed generator seeds, fixed timestamps) so
// re-running this tool produces byte-identical files.  The corpora are
// committed; the fuzz_corpus_fresh CTest regenerates them into the build
// tree and fails when a file differs, so a change here must be committed
// together with the regenerated corpus.  Keep seeds small:
// mutation coverage per iteration scales with how much of the structure a
// few flipped bytes can reach, and a 5 KB seed fuzzes far better than a
// 5 MB one on the same budget.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/census_report.hpp"
#include "core/hybrid.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/writer.hpp"
#include "util/bytes.hpp"

using namespace htor;

namespace {

void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> data) {
  save_bytes(path.string(), data);
  std::cout << "wrote " << path.string() << " (" << data.size() << " bytes)\n";
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) throw Error("cannot write " + path.string());
  std::cout << "wrote " << path.string() << " (" << text.size() << " bytes)\n";
}

// --------------------------------------------------------------------- mrt

void make_mrt_seeds(const std::filesystem::path& dir) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
  const auto records = mrt::records_from_rib(net.collect(), 0x0a0a0a0au, "fuzz", 1281052800u);

  // Seed 1: PEER_INDEX_TABLE + a few dozen RIB records — enough structure
  // (v4 and v6 prefixes, multiple entries per prefix, real path attributes)
  // for length-field mutations to land somewhere interesting.
  {
    mrt::MrtWriter writer;
    for (std::size_t i = 0; i < records.size() && i < 40; ++i) writer.write(records[i]);
    write_file(dir / "rib_small.mrt", writer.data());
  }

  // Seed 2: the PIT plus exactly one v4 and one v6 record — the minimal
  // joinable RIB, so truncation mutations probe every framing offset.
  {
    mrt::MrtWriter writer;
    writer.write(records[0]);
    for (std::size_t i = 1, taken = 0; i < records.size() && taken < 2; ++i) {
      writer.write(records[i]);
      ++taken;
    }
    write_file(dir / "rib_minimal.mrt", writer.data());
  }
}

// ---------------------------------------------------------------- snapshot

snapshot::Snapshot tiny_snapshot() {
  snapshot::Snapshot snap;
  snap.header.timestamp = 1700000000u;
  snap.header.source = "fuzz-tiny.mrt";
  snap.dataset = {10, 8, 5, 4, 3};
  snap.coverage_v4 = {5, 4};
  snap.coverage_v6 = {4, 3};
  snap.coverage_dual = {3, 2};
  snap.valleys_v4 = {8, 6, 1, 1, 1, 1};
  snap.valleys_v6 = {6, 4, 2, 0, 2, 1};
  snap.hybrid_counters = {3, 2, 8, 4};
  snap.rels_v4.set(1, 2, Relationship::P2C);
  snap.rels_v4.set(2, 3, Relationship::P2P);
  snap.rels_v6.set(1, 2, Relationship::P2P);
  snap.rels_v6.set(2, 3, Relationship::P2P);
  snap.hybrids.push_back({LinkKey(1, 2), Relationship::P2C, Relationship::P2P,
                          static_cast<std::uint8_t>(core::HybridClass::TransitV4PeerV6), 5});
  return snap;
}

void make_snapshot_seeds(const std::filesystem::path& dir) {
  // Seeds are v2 flat-layout images (the only format the reader accepts).
  write_file(dir / "tiny_v2.snap", snapshot::Writer::encode(tiny_snapshot()));

  // An empty-maps snapshot: the zero-count paths are their own edge case.
  snapshot::Snapshot empty;
  empty.header.timestamp = 1700000001u;
  empty.header.source = "fuzz-empty.mrt";
  write_file(dir / "empty_v2.snap", snapshot::Writer::encode(empty));

  // A census-sized snapshot from the synthetic generator: realistic counts,
  // hundreds of map entries, a non-trivial hybrid list.
  const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
  const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
  ThreadPool pool;
  const auto report = core::run_census(net.collect(), dict, {}, pool);
  const auto snap = core::to_snapshot(report, "fuzz-census.mrt", 1281052800u);
  write_file(dir / "census_v2.snap", snapshot::Writer::encode(snap));
}

// ----------------------------------------------------------------- updates

mrt::Record update_record(std::uint32_t timestamp, std::vector<std::string> withdrawn,
                          std::vector<std::string> announced) {
  bgp::UpdateMessage update;
  for (const auto& p : withdrawn) update.withdrawn.push_back(Prefix::parse(p));
  if (!announced.empty()) {
    update.attrs.origin = bgp::Origin::Igp;
    update.attrs.as_path = bgp::AsPath::sequence({65001, 65002, 65003});
    update.attrs.next_hop = IpAddress::parse("10.0.0.1");
    for (const auto& p : announced) update.nlri.push_back(Prefix::parse(p));
  }
  mrt::Bgp4mpMessage msg;
  msg.peer_as = 65001;
  msg.local_as = 64500;
  msg.peer_ip = IpAddress::parse("10.0.0.1");
  msg.local_ip = IpAddress::parse("10.0.0.2");
  msg.message = std::move(update);
  return mrt::Record{timestamp, std::move(msg)};
}

void make_update_seeds(const std::filesystem::path& dir) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
  const auto rib = net.collect();

  // Seed 1: a mixed announce/withdraw/mutate/flap schedule over the small
  // synthetic RIB — both families, MP_REACH/MP_UNREACH v6 encodings, real
  // communities for the vote-retraction paths.
  {
    gen::UpdateScheduleParams params;
    params.seed = 7;
    params.events = 40;
    mrt::MrtWriter writer;
    for (const auto& record : gen::synthesize_updates(rib, params)) writer.write(record);
    write_file(dir / "updates_mixed.mrt", writer.data());
  }

  // Seed 2: a minimal handful of events so truncation mutations probe every
  // framing and attribute offset of a single update.
  {
    gen::UpdateScheduleParams params;
    params.seed = 3;
    params.events = 6;
    mrt::MrtWriter writer;
    for (const auto& record : gen::synthesize_updates(rib, params)) writer.write(record);
    write_file(dir / "updates_minimal.mrt", writer.data());
  }

  // Seed 3: UPDATEs that withdraw held IPv4 prefixes and announce in the
  // same message — the shape fuzz_updates' structure pass strips the
  // AS_PATH from, so a rejected message holds routes that a mutation before
  // validation would lose.  The first frame's timestamp is a multiple of 3,
  // so its routes are folded into the table; the second's stay in the
  // overlay; the third withdraws one of each.
  {
    mrt::MrtWriter writer;
    writer.write(update_record(1700000001u, {}, {"10.1.0.0/16", "10.2.0.0/16"}));
    writer.write(update_record(1700000002u, {}, {"10.3.0.0/16"}));
    writer.write(update_record(1700000003u, {"10.1.0.0/16", "10.3.0.0/16"}, {"10.4.0.0/16"}));
    write_file(dir / "updates_withdraw_announce.mrt", writer.data());
  }
}

// -------------------------------------------------------------------- http

void make_http_seeds(const std::filesystem::path& dir) {
  write_text(dir / "get_link.http",
             "GET /v1/link/3356/1299 HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
  write_text(dir / "pipelined.http",
             "GET /v1/healthz HTTP/1.1\r\nHost: a\r\n\r\n"
             "GET /v1/neighbors/15169 HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
  write_text(dir / "post_reload.http",
             "POST /v1/reload HTTP/1.1\r\nHost: localhost\r\nContent-Length: 2\r\n\r\n{}");
  write_text(dir / "head.http",
             "HEAD /v1/summary HTTP/1.0\r\nConnection: keep-alive\r\nUser-Agent: fuzz\r\n\r\n");
  write_text(dir / "many_headers.http",
             "GET /v1/metrics HTTP/1.1\r\nHost: h\r\nAccept: application/json\r\n"
             "Accept-Encoding: identity\r\nX-Request-Id: 0123456789abcdef\r\n"
             "Cache-Control: no-cache\r\nConnection: close\r\n\r\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fuzz_make_corpus <corpus_root>\n";
    return 2;
  }
  const std::filesystem::path root = argv[1];
  try {
    for (const char* sub : {"mrt", "snapshot", "http", "updates"}) {
      std::filesystem::create_directories(root / sub);
    }
    make_mrt_seeds(root / "mrt");
    make_snapshot_seeds(root / "snapshot");
    make_http_seeds(root / "http");
    make_update_seeds(root / "updates");
  } catch (const std::exception& e) {
    std::cerr << "fuzz_make_corpus: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
