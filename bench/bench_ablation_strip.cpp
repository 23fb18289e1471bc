// A3 (ablation): community stripping vs. inference coverage.
// Transit ASes that strip inbound communities destroy the tags of everyone
// behind them; this sweep quantifies how fast coverage degrades and how much
// the LocPrf Rosetta (whose first-hop signal survives stripping) buys back.
#include <iostream>

#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("A3 / bench_ablation_strip",
                      "community stripping degrades coverage; the Rosetta compensates "
                      "on first-hop links");

  Table t({"strip prob", "v6 coverage (comm only)", "v6 coverage (+Rosetta)",
           "rosetta links added", "dual both-known"});

  for (double strip : {0.0, 0.05, 0.15, 0.30, 0.50}) {
    gen::GenParams params;
    params.strip_prob = strip;
    const auto ds = bench::make_dataset(params);

    core::InferenceConfig comm_only;
    comm_only.use_rosetta = false;
    ThreadPool pool;
    const auto census_comm = core::run_census(ds.rib, ds.dict, comm_only, pool);
    const auto census_full = core::run_census(ds.rib, ds.dict, {}, pool);

    t.row({fmt_double(strip, 2),
           fmt_pct(census_comm.v6_coverage.covered_links,
                   census_comm.v6_coverage.observed_links),
           fmt_pct(census_full.v6_coverage.covered_links,
                   census_full.v6_coverage.observed_links),
           std::to_string(census_full.inferred.rosetta_v6.first_hop_rels.size()),
           std::to_string(census_full.dual_coverage.covered_links)});
  }
  t.print(std::cout);
  std::cout << "\nnote: stripping is applied per transit AS, so each stripper blanks the\n"
               "tags of its whole upstream path suffix — coverage falls faster than the\n"
               "stripping probability itself.\n";
  return 0;
}
