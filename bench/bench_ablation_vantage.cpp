// A2 (ablation): vantage-point completeness, in the spirit of Oliveira et
// al. [4].  Sweeping the number of collector peers shows how observed links,
// coverage, and hybrid recall grow with vantage diversity.
#include <iostream>
#include <unordered_set>

#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("A2 / bench_ablation_vantage",
                      "observed topology and hybrid recall vs number of vantage points");

  Table t({"vantages", "v6 paths", "v6 links", "dual links", "v6 coverage", "hybrids found",
           "hybrid recall"});

  for (const auto [t1, t2, t3, st] :
       {std::array<std::size_t, 4>{0, 2, 2, 1}, std::array<std::size_t, 4>{1, 4, 4, 2},
        std::array<std::size_t, 4>{1, 8, 8, 5}, std::array<std::size_t, 4>{2, 12, 12, 8},
        std::array<std::size_t, 4>{4, 24, 24, 16}}) {
    gen::GenParams params;  // same seed, same Internet; only the vantages move
    params.vantage_tier1 = t1;
    params.vantage_tier2 = t2;
    params.vantage_tier3 = t3;
    params.vantage_stub = st;
    const auto ds = bench::make_dataset(params);
    ThreadPool pool;
    const auto census = core::run_census(ds.rib, ds.dict, {}, pool);

    std::unordered_set<LinkKey, LinkKeyHash> planted;
    for (const auto& g : ds.net.hybrid_links()) planted.insert(g.link);
    std::size_t recalled = 0;
    for (const auto& f : census.hybrids.hybrids) {
      if (planted.count(f.link)) ++recalled;
    }

    t.row({std::to_string(ds.net.vantages().size()), std::to_string(census.v6_paths),
           std::to_string(census.v6_links), std::to_string(census.dual_links),
           fmt_pct(census.v6_coverage.covered_links, census.v6_coverage.observed_links),
           std::to_string(census.hybrids.hybrids.size()),
           fmt_pct(recalled, planted.size())});
  }
  t.print(std::cout);
  std::cout << "\nnote: even many vantages cannot see every planted hybrid link — links that\n"
               "never appear on a collected best path are invisible, the (in)completeness\n"
               "phenomenon of Oliveira et al. [4].\n";
  return 0;
}
