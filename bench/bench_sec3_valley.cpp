// T5 (§3 ¶4): valley paths.
// Paper: 13% of IPv6 paths violate the valley-free rule; 16% of those
// valleys exist to expand reachability (strict valley-free IPv6 routing is
// partitioned, cf. the AS6939/AS174 dispute).
#include <iostream>

#include "core/valley_census.hpp"
#include "harness.hpp"
#include "topology/reachability.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("T5 / bench_sec3_valley",
                      "13% of IPv6 paths are valley paths; 16% of valleys are "
                      "reachability-required; v6 partitioned under valley-free");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto census = core::run_census(ds.rib, ds.dict, {}, pool);

  Table t({"metric", "paper", "measured"});
  const auto& v6 = census.v6_valleys;
  t.row({"IPv6 valley paths", "13%",
         std::to_string(v6.valley) + " / " + std::to_string(v6.paths) + " (" +
             fmt_pct(v6.valley, v6.paths) + ")"});
  t.row({"reachability-required valleys", "16%",
         std::to_string(v6.necessary_valleys) + " / " + std::to_string(v6.classified_valleys) +
             " (" + fmt_pct(v6.necessary_valleys, v6.classified_valleys) + ")"});
  t.row({"paths with incomplete rel knowledge", "-",
         std::to_string(v6.incomplete) + " (" + fmt_pct(v6.incomplete, v6.paths) + ")"});
  const auto& v4 = census.v4_valleys;
  t.row({"IPv4 valley paths (contrast)", "(small)",
         std::to_string(v4.valley) + " / " + std::to_string(v4.paths) + " (" +
             fmt_pct(v4.valley, v4.paths) + ")"});
  t.print(std::cout);

  // Partition evidence on ground truth: valley-free reachability between the
  // exclusive cones of the disputing tier-1s.
  const auto [a, b] = ds.net.dispute_pair();
  if (a != 0) {
    ValleyFreeRouting vf(ds.net.graph(), ds.net.truth(IpVersion::V6), IpVersion::V6);
    std::cout << "\nIPv6 tier-1 dispute: AS" << a << " and AS" << b
              << " do not peer in IPv6 (ground truth)\n";
    std::cout << "strict valley-free reachability AS" << a << " -> AS" << b << ": "
              << (vf.reachable(a, b) ? "reachable" : "UNREACHABLE (partitioned)") << "\n";
  }
  return 0;
}
