// Full-scale hybrid census: runs the paper's complete measurement on the
// default (bench-scale) synthetic Internet and prints a §3-style report,
// including ground-truth validation (which a real measurement cannot have —
// the point of a simulated substrate).
//
// Usage:  hybrid_census [seed]        (default seed 42)
#include <cstdlib>
#include <iostream>
#include <unordered_set>

#include "core/census_report.hpp"
#include "gen/internet.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace htor;

  gen::GenParams params;
  if (argc > 1) params.seed = std::strtoull(argv[1], nullptr, 10);
  std::cout << "generating synthetic Internet (seed " << params.seed << ", "
            << params.total_ases() << " ASes)...\n";
  const auto net = gen::SyntheticInternet::generate(params);

  mrt::MrtWriter writer;
  for (const auto& record :
       mrt::records_from_rib(net.collect(), 0x0a0a0a0au, "census", 1281052800u)) {
    writer.write(record);
  }
  ThreadPool pool;
  mrt::MrtStreamReader stream(writer.data());
  const auto rib = mrt::rib_from_stream(stream, pool);
  const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
  const auto census = core::run_census(rib, dict, {}, pool);

  std::cout << "\n===== dataset =====\n";
  Table ds({"metric", "value"});
  ds.row({"IPv4 AS paths", std::to_string(census.v4_paths)});
  ds.row({"IPv6 AS paths", std::to_string(census.v6_paths)});
  ds.row({"IPv4 AS links", std::to_string(census.v4_links)});
  ds.row({"IPv6 AS links", std::to_string(census.v6_links)});
  ds.row({"dual-stack links", std::to_string(census.dual_links)});
  ds.print(std::cout);

  std::cout << "\n===== inference coverage =====\n";
  Table cov({"plane", "links", "covered", "share"});
  cov.row({"IPv4", std::to_string(census.v4_coverage.observed_links),
           std::to_string(census.v4_coverage.covered_links),
           fmt_pct(census.v4_coverage.covered_links, census.v4_coverage.observed_links)});
  cov.row({"IPv6", std::to_string(census.v6_coverage.observed_links),
           std::to_string(census.v6_coverage.covered_links),
           fmt_pct(census.v6_coverage.covered_links, census.v6_coverage.observed_links)});
  cov.row({"dual (both planes typed)", std::to_string(census.dual_coverage.observed_links),
           std::to_string(census.dual_coverage.covered_links),
           fmt_pct(census.dual_coverage.covered_links, census.dual_coverage.observed_links)});
  cov.print(std::cout);

  const auto& h = census.hybrids;
  std::cout << "\n===== hybrid IPv4/IPv6 relationships =====\n";
  Table hy({"class", "links", "share of hybrids"});
  hy.row({"p2p(v4) / transit(v6)", std::to_string(h.peer_v4_transit_v6),
          fmt_pct(h.peer_v4_transit_v6, h.hybrids.size())});
  hy.row({"transit(v4) / p2p(v6)", std::to_string(h.transit_v4_peer_v6),
          fmt_pct(h.transit_v4_peer_v6, h.hybrids.size())});
  hy.row({"p2c(v4)/c2p(v6) reversal", std::to_string(h.reversals),
          fmt_pct(h.reversals, h.hybrids.size())});
  hy.row({"other", std::to_string(h.other_mix), fmt_pct(h.other_mix, h.hybrids.size())});
  hy.print(std::cout);
  std::cout << "hybrid share of typed dual links: "
            << fmt_pct(h.hybrids.size(), h.dual_links_both_known) << "\n";
  std::cout << "IPv6 paths crossing a hybrid link: "
            << fmt_pct(h.v6_paths_with_hybrid, h.v6_paths_total) << "\n";

  std::cout << "\n===== valley paths =====\n";
  Table vy({"plane", "paths", "valley", "share", "reachability-required"});
  vy.row({"IPv6", std::to_string(census.v6_valleys.paths),
          std::to_string(census.v6_valleys.valley),
          fmt_pct(census.v6_valleys.valley, census.v6_valleys.paths),
          fmt_pct(census.v6_valleys.necessary_valleys, census.v6_valleys.classified_valleys)});
  vy.row({"IPv4", std::to_string(census.v4_valleys.paths),
          std::to_string(census.v4_valleys.valley),
          fmt_pct(census.v4_valleys.valley, census.v4_valleys.paths), "-"});
  vy.print(std::cout);

  // Ground-truth validation — the luxury of a synthetic substrate.
  std::unordered_set<LinkKey, LinkKeyHash> planted;
  for (const auto& g : net.hybrid_links()) planted.insert(g.link);
  std::size_t true_pos = 0;
  for (const auto& f : h.hybrids) {
    if (planted.count(f.link)) ++true_pos;
  }
  std::cout << "\n===== validation against planted ground truth =====\n";
  std::cout << "planted hybrids:   " << planted.size() << " (whole topology)\n";
  std::cout << "detected hybrids:  " << h.hybrids.size() << " (observed, both planes typed)\n";
  std::cout << "precision:         " << fmt_pct(true_pos, h.hybrids.size()) << "\n";
  std::cout << "recall (observed): " << fmt_pct(true_pos, planted.size())
            << "  — limited by vantage coverage, cf. bench_ablation_vantage\n";
  return 0;
}
