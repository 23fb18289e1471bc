// F2 (Figure 2): correcting the 20 most path-visible hybrid links in a
// conventionally-inferred IPv6 relationship map.
// Paper: average shortest valley-free path of the union of IPv6 customer
// trees drops 3.8 -> 2.23 and the diameter 11 -> 7.  The misinferred map is
// produced the way prior work did it: Gao's algorithm over the mixed
// IPv4+IPv6 path set, which stamps the (IPv4-dominated) relationship onto
// IPv6 links.
#include <iostream>

#include "baselines/gao.hpp"
#include "core/correction.hpp"
#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("F2 / bench_fig2_correction",
                      "avg shortest valley-free path 3.8 -> 2.23, diameter 11 -> 7 while "
                      "correcting the top-20 hybrid links");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto census = core::run_census(ds.rib, ds.dict, {}, pool);

  // The baseline of prior work ([4] and its kin): one relationship per AS
  // link, generalized across address families — i.e. the (correct) IPv4
  // relationship stamped onto every dual-stack IPv6 link.  This is exactly
  // the misinference mode the paper describes: AF-agnostic algorithms
  // *cannot* represent a link whose business relationship differs by IP
  // version.  Links that exist only in IPv6 get the valley-free heuristic
  // (Gao) run on the IPv6 paths.
  const auto gao_v6 = baselines::infer_gao(census.v6_path_store);

  RelationshipMap baseline_v6;
  for (const LinkKey& key : census.v6_path_store.links()) {
    Relationship rel = census.inferred.v4.get(key.first, key.second);
    if (rel == Relationship::Unknown) rel = gao_v6.rels.get(key.first, key.second);
    if (rel != Relationship::Unknown) baseline_v6.set(key.first, key.second, rel);
  }

  const auto steps = core::correction_experiment(baseline_v6, census.hybrids.hybrids, 20);

  Table t({"corrected", "avg valley-free path", "diameter", "p2c edges", "reachable pairs"});
  for (const auto& step : steps) {
    t.row({std::to_string(step.corrected), fmt_double(step.metrics.avg_path_length, 3),
           std::to_string(step.metrics.diameter), std::to_string(step.metrics.edges),
           std::to_string(step.metrics.reachable_pairs)});
  }
  t.print(std::cout);

  const auto& first = steps.front().metrics;
  const auto& last = steps.back().metrics;
  std::cout << "\npaper:    avg 3.8 -> 2.23, diameter 11 -> 7\n";
  std::cout << "measured: avg " << fmt_double(first.avg_path_length, 2) << " -> "
            << fmt_double(last.avg_path_length, 2) << ", diameter " << first.diameter << " -> "
            << last.diameter << "\n";
  return 0;
}
