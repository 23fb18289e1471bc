// T2 (§3 ¶1): inference coverage.
// Paper: actual relationships extracted for 72% (7,651) of all IPv6 links
// and 81% (6,160) of the dual-stack links.
#include <iostream>

#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("T2 / bench_sec3_coverage",
                      "relationships for 72% of IPv6 links, 81% of IPv4/IPv6 links");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto census = core::run_census(ds.rib, ds.dict, {}, pool);

  Table t({"metric", "paper", "measured"});
  t.row({"IPv6 links covered", "7651 (72%)",
         std::to_string(census.v6_coverage.covered_links) + " (" +
             fmt_pct(census.v6_coverage.covered_links, census.v6_coverage.observed_links) + ")"});
  t.row({"dual-stack links covered (both AFs)", "6160 (81%)",
         std::to_string(census.dual_coverage.covered_links) + " (" +
             fmt_pct(census.dual_coverage.covered_links, census.dual_coverage.observed_links) +
             ")"});
  t.row({"IPv4 links covered", "-",
         std::to_string(census.v4_coverage.covered_links) + " (" +
             fmt_pct(census.v4_coverage.covered_links, census.v4_coverage.observed_links) + ")"});
  t.print(std::cout);

  std::cout << "\nmechanism breakdown (IPv6):\n";
  Table m({"stage", "links typed", "notes"});
  m.row({"communities (votes)", std::to_string(census.inferred.community_v6.rels.size()),
         std::to_string(census.inferred.community_v6.conflicted_links) + " conflicted"});
  m.row({"+ LocPrf Rosetta", std::to_string(census.inferred.rosetta_v6.first_hop_rels.size()),
         std::to_string(census.inferred.rosetta_v6.values_learned) + " values learned, " +
             std::to_string(census.inferred.rosetta_v6.routes_te_filtered) + " routes TE-filtered"});
  m.row({"dictionary size", std::to_string(ds.dict.size()),
         std::to_string(ds.dict.documented_asns().size()) + " ASes documented"});
  m.print(std::cout);
  return 0;
}
