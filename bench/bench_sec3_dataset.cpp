// T1 (§3 ¶1): dataset statistics.
// Paper (Aug 2010): 346,649 IPv6 AS paths; 10,535 IPv6 AS links; 7,618 of
// them also visible in IPv4.  The synthetic Internet is ~13x smaller, so the
// comparison is about shape: a large path set, and roughly 70-75% of IPv6
// links also present in IPv4.
#include <iostream>

#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("T1 / bench_sec3_dataset",
                      "346,649 IPv6 paths; 10,535 IPv6 links; 7,618 dual-stack links");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto census = core::run_census(ds.rib, ds.dict, {}, pool);

  Table t({"metric", "paper (Aug 2010)", "measured (synthetic)"});
  t.row({"IPv6 AS paths (distinct)", "346649", std::to_string(census.v6_paths)});
  t.row({"IPv6 AS links", "10535", std::to_string(census.v6_links)});
  t.row({"IPv4/IPv6 (dual-stack) links", "7618", std::to_string(census.dual_links)});
  t.row({"dual-stack share of IPv6 links", "72.3%",
         fmt_pct(census.dual_links, census.v6_links)});
  t.row({"IPv4 AS paths (distinct)", "-", std::to_string(census.v4_paths)});
  t.row({"IPv4 AS links", "-", std::to_string(census.v4_links)});
  t.row({"MRT dump size (bytes)", "-", std::to_string(ds.mrt_bytes)});
  t.row({"MRT records parsed", "-", std::to_string(ds.mrt_records)});
  t.print(std::cout);
  return 0;
}
