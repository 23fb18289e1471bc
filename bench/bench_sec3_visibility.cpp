// T4 (§3 ¶2-3): hybrid links sit among tier-1/tier-2 ASes and are highly
// visible: more than 28% of IPv6 AS paths contain at least one hybrid link.
#include <iostream>

#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("T4 / bench_sec3_visibility",
                      ">28% of IPv6 paths traverse a hybrid link; hybrids among tier-1/2");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto census = core::run_census(ds.rib, ds.dict, {}, pool);
  const auto& h = census.hybrids;

  Table t({"metric", "paper", "measured"});
  t.row({"IPv6 paths with >=1 hybrid link", ">28%",
         std::to_string(h.v6_paths_with_hybrid) + " / " + std::to_string(h.v6_paths_total) +
             " (" + fmt_pct(h.v6_paths_with_hybrid, h.v6_paths_total) + ")"});
  t.print(std::cout);

  std::cout << "\nhybrid endpoint tiers (each link contributes two endpoints):\n";
  std::size_t total_endpoints = 0;
  for (const auto& [tier, count] : h.endpoint_tiers) {
    (void)tier;
    total_endpoints += count;
  }
  Table tiers({"tier", "endpoints", "share"});
  for (Tier tier : {Tier::Tier1, Tier::Tier2, Tier::Tier3, Tier::Stub}) {
    auto it = h.endpoint_tiers.find(tier);
    const std::size_t count = it == h.endpoint_tiers.end() ? 0 : it->second;
    tiers.row({to_string(tier), std::to_string(count), fmt_pct(count, total_endpoints)});
  }
  tiers.print(std::cout);

  std::cout << "\ntop 10 hybrid links by IPv6 path visibility:\n";
  Table top({"link", "rel v4", "rel v6", "IPv6 paths"});
  for (std::size_t i = 0; i < h.hybrids.size() && i < 10; ++i) {
    const auto& f = h.hybrids[i];
    top.row({"AS" + std::to_string(f.link.first) + " - AS" + std::to_string(f.link.second),
             to_string(f.rel_v4), to_string(f.rel_v6), std::to_string(f.v6_path_visibility)});
  }
  top.print(std::cout);
  return 0;
}
