// hybridtor — command-line front end for the library.
//
// Subcommands:
//   generate <outdir> [seed]   generate the synthetic Internet and write
//                              rib.mrt (TABLE_DUMP_V2), irr.txt (RPSL) and
//                              truth.csv (planted ground truth) into outdir
//   census  <rib.mrt> <irr.txt>
//                              run the paper's full census on on-disk data
//                              (works on real RouteViews TABLE_DUMP_V2 files
//                              plus any IRR text dump)
//   inspect <rib.mrt>          per-record summary of an MRT file
//   diff    <a.snap> <b.snap>  relationship churn between two snapshots
//   query   [--json] <snap> <asn> [asn2]
//                              AS-pair relationship / AS neighbor-list lookup
//                              against a snapshot; --json emits the same
//                              bytes the query daemon serves over HTTP.
//                              Snapshots are mmap'd and searched in-file
//                              (zero-copy)
//   serve   <snap> [--port N] [--jobs N]
//                              long-running query daemon over one snapshot:
//                              loads it once into a QueryIndex and serves
//                              /v1/link, /v1/neighbors, /v1/summary,
//                              /v1/healthz, /v1/metrics over HTTP/1.1 on
//                              127.0.0.1; SIGHUP or POST /v1/reload hot-swaps
//                              a freshly loaded snapshot without downtime
//   follow  <rib.mrt> <irr.txt> <updates.mrt...>
//                              continuous census: seed the RIB, stream the
//                              BGP4MP update files through the live feed
//                              (one read -> decode -> apply loop), and cut
//                              a full census epoch every
//                              --epoch-every applied updates (plus a final
//                              one).  Each epoch is byte-identical to
//                              running `census` on the RIB state at that
//                              point in the stream.
//   serve --follow <rib.mrt> <irr.txt> <updates.mrt...>
//                              the follow pipeline fused with the query
//                              daemon: every cut epoch is encoded to an
//                              in-memory QueryIndex and swapped into the
//                              daemon without dropping a connection; the
//                              daemon's answers lag the stream by at most
//                              --epoch-every updates
//
// The census subcommand is the adoption path for real data: it consumes
// nothing but the two files.  `census --snapshot-out <file>` additionally
// persists the report's durable core (relationship maps, hybrid links,
// coverage/valley counters) as a versioned binary snapshot; `diff` and
// `query` consume those snapshots, which is how multi-RIB temporal studies
// avoid re-running the census per question.
//
// `--jobs N` (anywhere on the command line) sizes the thread pool: for
// census, 1 (the default) runs fully sequential and 0 uses one worker per
// hardware thread — every value produces byte-identical reports and
// byte-identical snapshot files.  For serve it sizes the connection worker
// pool and defaults to 0 (a daemon should not serialize its clients).
//
// `census` ingests the MRT file by streaming it: headers are scanned
// sequentially, record bodies decode in parallel batches, and routes join
// straight into the RIB, so peak memory stays one batch deep instead of
// ~3× the decoded RIB.
//
// `census --stats` appends an end-of-run stage-timing table (ingest,
// decode, apply, census sub-stages, snapshot write) from the obs span
// histograms; `--trace-out <file>` additionally captures every stage span
// and writes a Chrome-trace-format JSON file that chrome://tracing and
// ui.perfetto.dev open directly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/census_report.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "live/follow.hpp"
#include "live/incremental_census.hpp"
#include "live/pipeline.hpp"
#include "mrt/reader.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpsl/community_dict.hpp"
#include "server/daemon.hpp"
#include "server/render.hpp"
#include "snapshot/diff.hpp"
#include "snapshot/query.hpp"
#include "snapshot/writer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace htor;

/// Strict numeric parse for --jobs ("0" = auto is legal; "abc"/"4x"/"-1" is
/// not, and neither is a value no machine has threads for).
constexpr std::size_t kMaxJobs = 4096;

std::optional<std::size_t> parse_jobs(const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed) || parsed > kMaxJobs) {
    std::cerr << "error: --jobs expects an integer in [0, " << kMaxJobs << "], got '" << value
              << "'\n";
    return std::nullopt;
  }
  return static_cast<std::size_t>(parsed);
}

/// Strict seed parse for `generate` — same discipline as --jobs: digits
/// only, no silent truncation of garbage like "12x" or "abc".
std::optional<std::uint64_t> parse_seed(const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed)) {
    std::cerr << "error: generate expects a non-negative integer seed, got '" << value << "'\n";
    return std::nullopt;
  }
  return parsed;
}

/// Strict ASN parse for `query` — the shared util parse_asn plus the CLI's
/// diagnostic.
std::optional<Asn> parse_asn_arg(const std::string& value) {
  Asn parsed = 0;
  if (!parse_asn(value, parsed)) {
    std::cerr << "error: '" << value << "' is not a valid ASN (expected 0..4294967295)\n";
    return std::nullopt;
  }
  return parsed;
}

/// Strict TCP port parse for `serve --port` (0 binds an ephemeral port).
std::optional<std::uint16_t> parse_port(const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed) || parsed > 65535) {
    std::cerr << "error: --port expects an integer in [0, 65535], got '" << value << "'\n";
    return std::nullopt;
  }
  return static_cast<std::uint16_t>(parsed);
}

int usage() {
  std::cerr << "usage:\n"
               "  hybridtor generate [--update-events N] [--scale N] <outdir> [seed]\n"
               "  hybridtor census [--jobs N] [--snapshot-out <file>]\n"
               "                   [--stats] [--trace-out <file>] <rib.mrt> <irr.txt>\n"
               "  hybridtor inspect <rib.mrt>\n"
               "  hybridtor diff <a.snap> <b.snap>\n"
               "  hybridtor query [--json] <snap> <asn> [asn2]\n"
               "  hybridtor serve <snap> [--port N] [--jobs N]\n"
               "  hybridtor follow [--jobs N] [--epoch-every N]\n"
               "                   <rib.mrt> <irr.txt> <updates.mrt...>\n"
               "  hybridtor serve --follow [--port N] [--jobs N] [--epoch-every N]\n"
               "                   <rib.mrt> <irr.txt> <updates.mrt...>\n";
  return 2;
}

/// Strict parse for --epoch-every (0 = only the final epoch).
std::optional<std::uint64_t> parse_epoch_every(const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed)) {
    std::cerr << "error: --epoch-every expects a non-negative integer, got '" << value << "'\n";
    return std::nullopt;
  }
  return parsed;
}

/// Strict parse for generate --update-events.
std::optional<std::size_t> parse_update_events(const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed) || parsed > 10'000'000) {
    std::cerr << "error: --update-events expects an integer in [0, 10000000], got '" << value
              << "'\n";
    return std::nullopt;
  }
  return static_cast<std::size_t>(parsed);
}

/// Strict parse for generate --scale (total AS count for the scale preset;
/// the upper bound is what the ASN paging in gen/internet.cpp can host).
std::optional<std::size_t> parse_scale(const std::string& value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed) || parsed < 1000 || parsed > 1'000'000) {
    std::cerr << "error: --scale expects an integer in [1000, 1000000], got '" << value
              << "'\n";
    return std::nullopt;
  }
  return static_cast<std::size_t>(parsed);
}

int cmd_generate(const std::string& outdir, std::uint64_t seed, std::size_t update_events,
                 std::size_t scale) {
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    throw Error("cannot create output directory '" + outdir + "': " + ec.message());
  }

  // --scale switches to the internet-scale preset and the O(N) synthetic
  // collector; the default keeps the paper-calibrated net and the full
  // propagation collector.
  gen::GenParams params = scale > 0 ? gen::scale_params(scale, seed) : gen::GenParams{};
  params.seed = seed;
  std::cout << "generating (seed " << seed << ", " << params.total_ases() << " ASes)...\n";
  const auto net = gen::SyntheticInternet::generate(params);
  const auto rib = scale > 0 ? net.collect_scaled() : net.collect();

  mrt::MrtWriter writer;
  for (const auto& record : mrt::records_from_rib(rib, 0x0a0a0a0au, "hybridtor", 1281052800u)) {
    writer.write(record);
  }
  writer.save(outdir + "/rib.mrt");
  std::cout << "wrote " << outdir << "/rib.mrt (" << writer.data().size() << " bytes)\n";

  if (update_events > 0) {
    gen::UpdateScheduleParams schedule;
    schedule.seed = seed;
    schedule.events = update_events;
    const auto updates = gen::synthesize_updates(rib, schedule);
    mrt::MrtWriter update_writer;
    for (const auto& record : updates) update_writer.write(record);
    update_writer.save(outdir + "/updates.mrt");
    std::cout << "wrote " << outdir << "/updates.mrt (" << updates.size() << " BGP4MP records, "
              << update_writer.data().size() << " bytes)\n";
  }

  std::ofstream irr(outdir + "/irr.txt");
  if (!irr) throw Error("cannot write " + outdir + "/irr.txt");
  irr << net.irr_dump();
  irr.flush();
  if (!irr) throw Error("write to " + outdir + "/irr.txt failed");
  std::cout << "wrote " << outdir << "/irr.txt\n";

  std::ofstream truth(outdir + "/truth.csv");
  if (!truth) throw Error("cannot write " + outdir + "/truth.csv");
  truth << "as_a,as_b,rel_v4,rel_v6,hybrid\n";
  net.graph().for_each_link(IpVersion::V4, [&](const LinkKey& key) {
    const auto r4 = net.truth(IpVersion::V4).get(key.first, key.second);
    const auto r6 = net.truth(IpVersion::V6).get(key.first, key.second);
    truth << key.first << ',' << key.second << ',' << to_string(r4) << ',' << to_string(r6)
          << ',' << (r6 != Relationship::Unknown && r4 != r6 ? 1 : 0) << '\n';
  });
  truth.flush();
  if (!truth) throw Error("write to " + outdir + "/truth.csv failed");
  std::cout << "wrote " << outdir << "/truth.csv\n";
  return 0;
}

/// End-of-run stage timing table from the span histograms: one row per
/// pipeline stage that ran, in stage-name order (dotted names group
/// sub-stages under their parent lexically).
void print_stage_stats(std::ostream& out) {
  const auto rows =
      obs::MetricsRegistry::global().histogram_family(obs::kStageDurationMetric);
  out << "\nstage timings:\n";
  Table t({"stage", "calls", "total us", "mean us"});
  for (const auto& row : rows) {
    // Labels render as {stage="<name>"}; recover the name.
    constexpr std::string_view kPrefix = "{stage=\"";
    std::string stage = row.labels;
    if (stage.rfind(kPrefix, 0) == 0 && stage.size() >= kPrefix.size() + 2) {
      stage = stage.substr(kPrefix.size(), stage.size() - kPrefix.size() - 2);
    }
    const std::uint64_t calls = row.values.total();
    if (calls == 0) continue;
    t.row({stage, std::to_string(calls), std::to_string(row.values.sum),
           std::to_string(row.values.sum / calls)});
  }
  t.print(out);
}

std::string link_name(const LinkKey& link) {
  return "AS" + std::to_string(link.first) + "-AS" + std::to_string(link.second);
}

int cmd_census(const std::string& mrt_path, const std::string& irr_path, std::size_t jobs,
               const std::optional<std::string>& snapshot_out, bool stats,
               const std::optional<std::string>& trace_out) {
  if (trace_out) obs::TraceCollector::global().enable();
  // Fail fast on unreadable or truncated input: no partial census is ever
  // printed — the single diagnostic below names the file and the reason.
  ThreadPool pool(jobs);
  mrt::ObservedRib rib;
  try {
    rib = core::load_rib(mrt_path, pool);
  } catch (const Error& e) {
    throw Error("census aborted: " + mrt_path + ": " + e.what());
  }
  const auto dict = rpsl::load_dictionary(irr_path);
  std::cout << mrt_path << ": " << rib.size() << " routes ("
            << rib.size_of(IpVersion::V6) << " IPv6); dictionary: " << dict.size()
            << " communities from " << dict.documented_asns().size() << " ASes\n\n";

  const auto census = core::run_census(rib, dict, core::InferenceConfig{}, pool);

  Table t({"metric", "value"});
  t.row({"IPv6 AS paths", std::to_string(census.v6_paths)});
  t.row({"IPv6 AS links", std::to_string(census.v6_links)});
  t.row({"IPv6 links with relationship",
         fmt_pct(census.v6_coverage.covered_links, census.v6_coverage.observed_links)});
  t.row({"dual-stack links", std::to_string(census.dual_links)});
  t.row({"dual-stack typed in both planes", std::to_string(census.dual_coverage.covered_links)});
  t.row({"hybrid links", std::to_string(census.hybrids.hybrids.size()) + " (" +
                             fmt_pct(census.hybrids.hybrids.size(),
                                     census.hybrids.dual_links_both_known) +
                             " of typed duals)"});
  t.row({"  p2p(v4)/transit(v6)", std::to_string(census.hybrids.peer_v4_transit_v6)});
  t.row({"  transit(v4)/p2p(v6)", std::to_string(census.hybrids.transit_v4_peer_v6)});
  t.row({"  reversals", std::to_string(census.hybrids.reversals)});
  t.row({"IPv6 paths crossing a hybrid",
         fmt_pct(census.hybrids.v6_paths_with_hybrid, census.hybrids.v6_paths_total)});
  t.row({"IPv6 valley paths",
         fmt_pct(census.v6_valleys.valley, census.v6_valleys.paths)});
  t.row({"  reachability-required",
         fmt_pct(census.v6_valleys.necessary_valleys, census.v6_valleys.classified_valleys)});
  t.print(std::cout);

  if (!census.hybrids.hybrids.empty()) {
    std::cout << "\ntop hybrid links by IPv6 path visibility:\n";
    Table top({"link", "v4", "v6", "paths"});
    for (std::size_t i = 0; i < census.hybrids.hybrids.size() && i < 10; ++i) {
      const auto& f = census.hybrids.hybrids[i];
      top.row({"AS" + std::to_string(f.link.first) + "-AS" + std::to_string(f.link.second),
               to_string(f.rel_v4), to_string(f.rel_v6),
               std::to_string(f.v6_path_visibility)});
    }
    top.print(std::cout);
  }

  std::cout << "\ndataset entities:\n";
  Table entities({"entity", "count"});
  entities.row({"distinct ASes", std::to_string(census.ases)});
  entities.row({"distinct prefixes", std::to_string(census.prefixes)});
  entities.row({"distinct AS links",
                std::to_string(census.v4_links + census.v6_links - census.dual_links)});
  entities.print(std::cout);
  if (!census.inferred.top_voted_links.empty()) {
    std::cout << "\nmost-voted links (community votes, both families):\n";
    Table votes({"link", "votes"});
    for (const auto& voted : census.inferred.top_voted_links) {
      votes.row({link_name(voted.link), std::to_string(voted.votes)});
    }
    votes.print(std::cout);
  }

  if (snapshot_out) {
    const auto snap = core::to_snapshot(census, mrt_path, mrt::rib_epoch(mrt_path));
    snapshot::Writer::write_file(snap, *snapshot_out);
    std::cout << "\nwrote snapshot " << *snapshot_out << " (v4 links "
              << snap.rels_v4.size() << ", v6 links " << snap.rels_v6.size() << ", hybrids "
              << snap.hybrids.size() << ")\n";
  }
  if (stats) print_stage_stats(std::cout);
  if (trace_out) {
    auto& collector = obs::TraceCollector::global();
    collector.write_file(*trace_out);
    std::cout << "\nwrote trace " << *trace_out << " (" << collector.event_count()
              << " events; load in chrome://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}

int cmd_inspect(const std::string& mrt_path) {
  // Streamed record-at-a-time decode: memory grows with the distinct ASes,
  // prefixes, links and origins seen, never with the number of routes.
  // Counted over every hop of every path, independently of the census.
  mrt::MrtStreamReader stream(mrt_path);
  std::unordered_set<Asn> ases;
  std::unordered_set<Prefix, PrefixHash> prefixes;
  std::unordered_set<LinkKey, LinkKeyHash> links;
  std::unordered_map<Asn, std::uint64_t> origin_routes;
  std::size_t pit = 0;
  std::size_t rib4 = 0;
  std::size_t rib6 = 0;
  std::size_t bgp4mp = 0;
  std::size_t raw = 0;
  std::size_t entries = 0;
  while (auto framed = stream.next()) {
    const auto record =
        mrt::decode_record_body(framed->timestamp, framed->type, framed->subtype, framed->body);
    if (std::holds_alternative<mrt::PeerIndexTable>(record.body)) {
      ++pit;
    } else if (const auto* r = std::get_if<mrt::RibPrefixRecord>(&record.body)) {
      (r->prefix.version() == IpVersion::V4 ? rib4 : rib6) += 1;
      entries += r->entries.size();
      for (const auto& entry : r->entries) {
        prefixes.insert(r->prefix);
        const auto path = entry.attrs.as_path.flatten();
        ases.insert(path.begin(), path.end());
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          if (path[i] != path[i + 1]) links.emplace(path[i], path[i + 1]);
        }
        if (!path.empty()) ++origin_routes[path.back()];
      }
    } else if (std::holds_alternative<mrt::Bgp4mpMessage>(record.body)) {
      ++bgp4mp;
    } else {
      ++raw;
    }
  }
  std::cout << mrt_path << ": " << stream.bytes_read() << " bytes, " << stream.records_read()
            << " records\n"
            << "  PEER_INDEX_TABLE: " << pit << "\n"
            << "  RIB_IPV4_UNICAST: " << rib4 << "\n"
            << "  RIB_IPV6_UNICAST: " << rib6 << "\n"
            << "  BGP4MP:           " << bgp4mp << "\n"
            << "  other/raw:        " << raw << "\n"
            << "  RIB entries:      " << entries << "\n"
            << "  distinct ASes:      " << ases.size() << "\n"
            << "  distinct prefixes:  " << prefixes.size() << "\n"
            << "  distinct AS links:  " << links.size() << "\n";
  if (!origin_routes.empty()) {
    std::vector<std::pair<Asn, std::uint64_t>> top(origin_routes.begin(), origin_routes.end());
    const std::size_t keep = std::min<std::size_t>(top.size(), 10);
    std::partial_sort(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(keep), top.end(),
                      [](const auto& a, const auto& b) {
                        return a.second != b.second ? a.second > b.second : a.first < b.first;
                      });
    std::cout << "\ntop origin ASes by RIB routes:\n";
    Table t({"origin", "routes"});
    for (std::size_t i = 0; i < keep; ++i) {
      t.row({"AS" + std::to_string(top[i].first), std::to_string(top[i].second)});
    }
    t.print(std::cout);
  }
  return 0;
}

/// mmap-backed: the kernel pages in only what the command reads.
snapshot::QueryIndex open_snapshot(const std::string& path) {
  try {
    return snapshot::QueryIndex::open_mapped(path);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

/// One side of a diff; its per-family link counts are the diff buckets that
/// side's links fall into.
std::string describe(const snapshot::QueryIndex& index, std::uint64_t v4_links,
                     std::uint64_t v6_links) {
  return index.source() + " @ " + std::to_string(index.timestamp()) + " (v4 links " +
         std::to_string(v4_links) + ", v6 links " + std::to_string(v6_links) + ", hybrids " +
         std::to_string(index.hybrid_entry_count()) + ")";
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const auto a = open_snapshot(path_a);
  const auto b = open_snapshot(path_b);
  const auto diff = snapshot::diff(a, b);

  const auto in_a = [](const snapshot::FamilyDiff& fam) {
    return fam.vanished.size() + fam.flips.size() + fam.unchanged;
  };
  const auto in_b = [](const snapshot::FamilyDiff& fam) {
    return fam.appeared.size() + fam.flips.size() + fam.unchanged;
  };
  std::cout << "a: " << path_a << ": " << describe(a, in_a(diff.v4), in_a(diff.v6)) << "\n"
            << "b: " << path_b << ": " << describe(b, in_b(diff.v4), in_b(diff.v6)) << "\n\n";

  Table t({"family", "appeared", "vanished", "flips", "unchanged"});
  const auto row = [&](const char* name, const snapshot::FamilyDiff& fam) {
    t.row({name, std::to_string(fam.appeared.size()), std::to_string(fam.vanished.size()),
           std::to_string(fam.flips.size()), std::to_string(fam.unchanged)});
  };
  row("v4", diff.v4);
  row("v6", diff.v6);
  t.print(std::cout);

  std::cout << "hybrids: formed " << diff.hybrids_formed.size() << ", resolved "
            << diff.hybrids_resolved.size() << ", stable " << diff.hybrids_stable << "\n";

  const auto show_flips = [](const char* name, const snapshot::FamilyDiff& fam) {
    if (fam.flips.empty()) return;
    std::cout << "\n" << name << " relationship flips (first "
              << std::min<std::size_t>(fam.flips.size(), 10) << " of " << fam.flips.size()
              << "):\n";
    for (std::size_t i = 0; i < fam.flips.size() && i < 10; ++i) {
      const auto& flip = fam.flips[i];
      std::cout << "  " << link_name(flip.link) << ": " << to_string(flip.before) << " -> "
                << to_string(flip.after) << "\n";
    }
  };
  show_flips("v4", diff.v4);
  show_flips("v6", diff.v6);

  std::cout << "\ntotal churn: " << diff.total_churn() << "\n";
  return 0;
}

int cmd_query(const std::string& snap_path, Asn asn, std::optional<Asn> other, bool json) {
  // The kernel pages in only the header plus the few link rows the binary
  // search touches.
  const snapshot::QueryIndex index = open_snapshot(snap_path);
  if (!json) {
    std::cout << snap_path << ": format v" << index.format_version() << ", "
              << index.snapshot_bytes() << " bytes" << (index.is_mapped() ? ", mapped" : "")
              << "\n";
  }

  // --json renders through server/render, the same functions the query
  // daemon uses for its HTTP bodies — CLI stdout and a daemon response for
  // the same snapshot are byte-identical, including the not-found shape.
  if (other) {
    const auto info = index.lookup(asn, *other);
    if (!info) {
      const std::string why = "AS" + std::to_string(asn) + "-AS" + std::to_string(*other) +
                              ": no relationship recorded in " + snap_path;
      if (json) {
        std::cout << server::error_json(why);
      } else {
        std::cerr << why << "\n";
      }
      return 1;
    }
    if (json) {
      std::cout << server::link_json(asn, *other, *info);
      return 0;
    }
    std::cout << "AS" << asn << " -> AS" << *other << ": v4 " << to_string(info->rel_v4)
              << ", v6 " << to_string(info->rel_v6) << (info->hybrid ? ", hybrid" : "") << "\n";
    return 0;
  }

  if (!index.contains(asn)) {
    const std::string why = "AS" + std::to_string(asn) + ": not present in " + snap_path;
    if (json) {
      std::cout << server::error_json(why);
    } else {
      std::cerr << why << "\n";
    }
    return 1;
  }
  if (json) {
    std::cout << server::neighbors_json(asn, index.neighbors(asn));
    return 0;
  }
  const auto neighbors = index.neighbors(asn);
  std::cout << "AS" << asn << ": " << neighbors.size() << " neighbors in " << snap_path << "\n";
  Table t({"neighbor", "v4", "v6", "hybrid"});
  for (const auto& n : neighbors) {
    t.row({"AS" + std::to_string(n.asn), to_string(n.info.rel_v4), to_string(n.info.rel_v6),
           n.info.hybrid ? "yes" : ""});
  }
  t.print(std::cout);
  return 0;
}

// ------------------------------------------------------------------- serve

/// Signal plumbing for `serve`: INT/TERM request shutdown, HUP requests a
/// zero-downtime snapshot reload.  Handlers only set lock-free flags — no
/// object is ever touched from signal context (a handler racing the
/// daemon's destructor on another thread could otherwise use a dead
/// pointer); the serve loop forwards the reload flag on its next tick.
///
/// Why std::atomic<bool> and not volatile std::sig_atomic_t: [intro.races]
/// makes a lock-free atomic the only type that is BOTH async-signal-safe
/// (like sig_atomic_t) and race-free against *other threads* — and these
/// flags are read by the serve loop thread while the kernel may deliver
/// the signal on any thread.  sig_atomic_t only covers the
/// same-thread-interrupted-by-handler case; here it would be a data race.
/// The guarantee this rests on is lock-freedom, so assert it: a platform
/// where atomic<bool> takes a lock would deadlock inside a handler.
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handlers require lock-free atomic<bool>");
std::atomic<bool> g_serve_stop{false};
std::atomic<bool> g_serve_reload{false};

void serve_signal(int sig) {
  if (sig == SIGHUP) {
    g_serve_reload.store(true);
    return;
  }
  g_serve_stop.store(true);
}

int cmd_serve(const std::string& snap_path, std::uint16_t port, std::size_t jobs) {
  server::DaemonConfig config;
  config.port = port;
  config.jobs = jobs;
  server::QueryDaemon daemon(snap_path, config);

  struct sigaction sa = {};
  sa.sa_handler = serve_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);

  daemon.start();
  std::cout << "serving " << snap_path << " on http://127.0.0.1:" << daemon.port()
            << " (epoch " << daemon.epoch() << ", " << jobs << " jobs)\n"
            << "endpoints: /v1/link/<a>/<b> /v1/neighbors/<asn> /v1/summary"
               " /v1/healthz /v1/metrics; POST /v1/reload or SIGHUP to hot-reload\n"
            << std::flush;

  while (!g_serve_stop.load()) {
    if (g_serve_reload.exchange(false)) daemon.request_reload();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::cout << "shutting down...\n";
  daemon.stop();
  return 0;
}

// ------------------------------------------------------------------ follow

/// Batch mode of the continuous census: stream the update files through the
/// live pipeline and print one line per cut epoch.  No daemon — this is the
/// offline replay / validation path (`serve --follow` is the serving path).
int cmd_follow(const std::string& rib_path, const std::string& irr_path,
               std::vector<std::string> update_paths, std::size_t jobs,
               std::uint64_t epoch_every) {
  ThreadPool pool(jobs);
  mrt::ObservedRib rib;
  try {
    rib = core::load_rib(rib_path, pool);
  } catch (const Error& e) {
    throw Error("follow aborted: " + rib_path + ": " + e.what());
  }
  const auto dict = rpsl::load_dictionary(irr_path);
  std::cout << rib_path << ": seeded " << rib.size() << " routes ("
            << rib.size_of(IpVersion::V6) << " IPv6); dictionary: " << dict.size()
            << " communities\n";

  live::IncrementalCensus census(std::move(rib), dict, core::InferenceConfig{}, rib_path,
                                 mrt::rib_epoch(rib_path));

  live::PipelineConfig pipeline_config;
  pipeline_config.epoch_every = epoch_every;
  live::Pipeline pipeline(census, pipeline_config);

  std::uint64_t epoch_no = 0;
  const auto result = pipeline.run(update_paths, pool, [&](const live::EpochReport& epoch) {
    ++epoch_no;
    const auto& r = epoch.report;
    std::cout << "epoch " << epoch_no << " @" << epoch.last_timestamp << ": applied "
              << epoch.applied << ", routes " << census.rib().size() << ", v6 links "
              << r.v6_links << ", typed v6 "
              << r.v6_coverage.covered_links << ", dual " << r.dual_links << ", hybrids "
              << r.hybrids.hybrids.size() << ", churn " << epoch.churn_ases << " AS/"
              << epoch.churn_prefixes << " pfx/" << epoch.churn_links << " link\n";
  });

  const auto& apply = census.rib().stats();
  std::cout << "\nstream done: " << result.records << " BGP4MP records ("
            << result.skipped << " non-update frames skipped), " << result.applied
            << " applied, " << result.epochs << " epochs\n"
            << "apply mix: " << apply.announced << " new, " << apply.replaced << " replaced, "
            << apply.duplicates << " duplicate announces; " << apply.withdrawn
            << " withdrawn (" << apply.withdrawn_missing << " for unknown routes); "
            << apply.non_updates << " non-UPDATE messages\n";
  return 0;
}

/// The serving mode: FollowService runs the pipeline on a background thread
/// and swaps each epoch's QueryIndex into the daemon; this loop only owns
/// signal plumbing.  --jobs sizes the census/epoch pool (the daemon keeps
/// its own default connection workers).
int cmd_serve_follow(const std::string& rib_path, const std::string& irr_path,
                     std::vector<std::string> update_paths, std::uint16_t port,
                     std::size_t jobs, std::uint64_t epoch_every) {
  live::FollowConfig config;
  config.daemon.port = port;
  config.jobs = jobs;
  config.pipeline.epoch_every = epoch_every;
  live::FollowService service(rib_path, irr_path, std::move(update_paths), config);

  struct sigaction sa = {};
  sa.sa_handler = serve_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);

  service.start();
  std::cout << "serving continuous census on http://127.0.0.1:" << service.port()
            << " (seed " << rib_path << ", epoch every " << epoch_every
            << " updates)\n"
            << "endpoints: /v1/link/<a>/<b> /v1/neighbors/<asn> /v1/summary"
               " /v1/healthz /v1/metrics /metrics\n"
            << std::flush;

  while (!g_serve_stop.load()) {
    // SIGHUP has no file to reload here; request_reload() reports that
    // gracefully through /v1/metrics rather than being silently dropped.
    if (g_serve_reload.exchange(false)) service.daemon().request_reload();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::cout << "shutting down...\n";
  service.stop();
  const auto result = service.result();
  std::cout << "applied " << result.applied << " updates, published "
            << service.epochs_published() << " epochs\n";
  service.wait();  // rethrows a failed feed; main reports it and exits 1
  return 0;
}

/// Matches argv[i] against the value-taking option `name`, written either
/// `name value` or `name=value`.  Returns false, leaving `value` alone, when
/// argv[i] is some other argument.  Otherwise returns true with `value` set
/// (and i advanced past a separate value), or with `value` unset after
/// printing the diagnostic when the value is missing — for a path option,
/// an empty path counts as missing.
bool option_value(int argc, char** argv, int& i, std::string_view name, bool is_path,
                  std::optional<std::string>& value) {
  const std::string_view arg = argv[i];
  std::optional<std::string> found;
  if (arg == name) {
    if (i + 1 < argc) found = argv[++i];
  } else if (arg.starts_with(name) && arg.size() > name.size() && arg[name.size()] == '=') {
    found = std::string(arg.substr(name.size() + 1));
  } else {
    return false;
  }
  if (is_path && found && found->empty()) found.reset();
  if (!found) {
    std::cerr << "error: " << name << " requires "
              << (is_path ? "a non-empty path" : "a value") << "\n";
  }
  value = std::move(found);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Split the command line into positionals and options, which are accepted
  // anywhere (before or after the subcommand's file arguments).  Anything
  // that *looks* like an option but is not one the CLI knows is rejected
  // with a reasoned error — silently treating "--frobnicate" as an input
  // file would turn a typo into a confusing "cannot open" failure later.
  std::vector<std::string> args;
  std::optional<std::size_t> jobs;
  bool json = false;
  bool stats = false;
  bool follow = false;
  std::optional<std::string> snapshot_out;
  std::optional<std::string> trace_out;
  std::optional<std::uint16_t> port;
  std::optional<std::uint64_t> epoch_every;
  std::optional<std::size_t> update_events;
  std::optional<std::size_t> scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
      continue;
    }
    if (arg == "--stats") {
      stats = true;
      continue;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 >= argc) {
        std::cerr << "error: --jobs requires a value\n";
        return 2;
      }
      const auto parsed = parse_jobs(argv[++i]);
      if (!parsed) return 2;
      jobs = *parsed;
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      const auto parsed = parse_jobs(arg.substr(7));
      if (!parsed) return 2;
      jobs = *parsed;
      continue;
    }
    // Each parser prints its own diagnostic; a missing or invalid value
    // leaves the option unset and exits 2.
    std::optional<std::string> value;
    if (option_value(argc, argv, i, "--epoch-every", false, value)) {
      if (!value || !(epoch_every = parse_epoch_every(*value))) return 2;
      continue;
    }
    if (option_value(argc, argv, i, "--update-events", false, value)) {
      if (!value || !(update_events = parse_update_events(*value))) return 2;
      continue;
    }
    if (option_value(argc, argv, i, "--scale", false, value)) {
      if (!value || !(scale = parse_scale(*value))) return 2;
      continue;
    }
    if (option_value(argc, argv, i, "--port", false, value)) {
      if (!value || !(port = parse_port(*value))) return 2;
      continue;
    }
    // Paths are checked now, not after the whole census has run.
    if (option_value(argc, argv, i, "--trace-out", true, trace_out)) {
      if (!trace_out) return 2;
      continue;
    }
    if (option_value(argc, argv, i, "--snapshot-out", true, snapshot_out)) {
      if (!snapshot_out) return 2;
      continue;
    }
    if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "error: unknown option '" << arg << "'\n";
      return usage();
    }
    args.push_back(arg);
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (snapshot_out && cmd != "census") {
    std::cerr << "error: --snapshot-out is only valid with the census subcommand\n";
    return 2;
  }
  if (stats && cmd != "census") {
    std::cerr << "error: --stats is only valid with the census subcommand\n";
    return 2;
  }
  if (trace_out && cmd != "census") {
    std::cerr << "error: --trace-out is only valid with the census subcommand\n";
    return 2;
  }
  if (json && cmd != "query") {
    std::cerr << "error: --json is only valid with the query subcommand\n";
    return 2;
  }
  if (port && cmd != "serve") {
    std::cerr << "error: --port is only valid with the serve subcommand\n";
    return 2;
  }
  if (follow && cmd != "serve") {
    std::cerr << "error: --follow is only valid with the serve subcommand\n";
    return 2;
  }
  if (epoch_every && cmd != "follow" && !(cmd == "serve" && follow)) {
    std::cerr << "error: --epoch-every is only valid with follow or serve --follow\n";
    return 2;
  }
  if (update_events && cmd != "generate") {
    std::cerr << "error: --update-events is only valid with the generate subcommand\n";
    return 2;
  }
  if (scale && cmd != "generate") {
    std::cerr << "error: --scale is only valid with the generate subcommand\n";
    return 2;
  }
  try {
    if (cmd == "generate" && (args.size() == 2 || args.size() == 3)) {
      std::uint64_t seed = 42;
      if (args.size() == 3) {
        const auto parsed = parse_seed(args[2]);
        if (!parsed) return 2;
        seed = *parsed;
      }
      return cmd_generate(args[1], seed, update_events.value_or(0), scale.value_or(0));
    }
    if (cmd == "census" && args.size() == 3) {
      return cmd_census(args[1], args[2], jobs.value_or(1), snapshot_out, stats, trace_out);
    }
    if (cmd == "inspect" && args.size() == 2) return cmd_inspect(args[1]);
    if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
    if (cmd == "query" && (args.size() == 3 || args.size() == 4)) {
      const auto asn = parse_asn_arg(args[2]);
      if (!asn) return 2;
      std::optional<Asn> other;
      if (args.size() == 4) {
        const auto parsed = parse_asn_arg(args[3]);
        if (!parsed) return 2;
        other = *parsed;
      }
      return cmd_query(args[1], *asn, other, json);
    }
    if (cmd == "serve" && !follow && args.size() == 2) {
      // serve defaults --jobs to 0 (one connection worker per hardware
      // thread): unlike the batch census, a daemon's default should not be
      // a single inline worker that serializes every client.
      return cmd_serve(args[1], port.value_or(8080), jobs.value_or(0));
    }
    if (cmd == "follow" && args.size() >= 4) {
      return cmd_follow(args[1], args[2], {args.begin() + 3, args.end()}, jobs.value_or(1),
                        epoch_every.value_or(0));
    }
    if (cmd == "serve" && follow && args.size() >= 4) {
      return cmd_serve_follow(args[1], args[2], {args.begin() + 3, args.end()},
                              port.value_or(8080), jobs.value_or(1), epoch_every.value_or(0));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
