// T3 (§3 ¶2): hybrid link census.
// Paper: 779 (13%) of the IPv4/IPv6 links have hybrid relationships; 67% of
// them are p2p in IPv4 but transit in IPv6; the rest p2p(v6)/p2c(v4); plus a
// single p2c(v4)/c2p(v6) reversal.
#include <iostream>

#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace htor;
  bench::print_header("T3 / bench_sec3_hybrid",
                      "779 (13%) hybrid links; 67% p2p(v4)/transit(v6); 1 reversal");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto census = core::run_census(ds.rib, ds.dict, {}, pool);
  const auto& h = census.hybrids;

  Table t({"metric", "paper", "measured"});
  const std::size_t detected = h.hybrids.size();
  t.row({"dual links with both rels known", "6160", std::to_string(h.dual_links_both_known)});
  t.row({"hybrid links", "779 (13%)",
         std::to_string(detected) + " (" + fmt_pct(detected, h.dual_links_both_known) + ")"});
  t.row({"p2p(v4) / transit(v6)", "67%",
         std::to_string(h.peer_v4_transit_v6) + " (" +
             fmt_pct(h.peer_v4_transit_v6, detected) + ")"});
  t.row({"transit(v4) / p2p(v6)", "~33%",
         std::to_string(h.transit_v4_peer_v6) + " (" +
             fmt_pct(h.transit_v4_peer_v6, detected) + ")"});
  t.row({"p2c(v4)/c2p(v6) reversals", "1", std::to_string(h.reversals)});
  t.row({"other mixes (siblings)", "-", std::to_string(h.other_mix)});
  t.print(std::cout);

  // Ground-truth validation: how many detected hybrids are planted ones?
  std::size_t true_positive = 0;
  std::unordered_set<LinkKey, LinkKeyHash> planted;
  for (const auto& g : ds.net.hybrid_links()) planted.insert(g.link);
  for (const auto& finding : h.hybrids) {
    if (planted.count(finding.link)) ++true_positive;
  }
  std::cout << "\nvalidation against planted ground truth:\n";
  Table v({"metric", "value"});
  v.row({"planted hybrid links (whole topology)", std::to_string(planted.size())});
  v.row({"detected hybrids that are planted", std::to_string(true_positive)});
  v.row({"detection precision", fmt_pct(true_positive, detected)});
  v.print(std::cout);
  return 0;
}
