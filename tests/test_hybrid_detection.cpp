// Tests for hybrid-link detection and assessment: classification of every
// hybrid class, visibility ranking, tier attribution, and end-to-end
// precision against the generator's planted ground truth.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/census_report.hpp"
#include "gen/internet.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"

namespace htor::core {
namespace {

TEST(HybridDetection, ClassifiesAllClasses) {
  RelationshipMap v4;
  RelationshipMap v6;
  // (1,2): p2p v4, p2c v6 -> PeerV4TransitV6.
  v4.set(1, 2, Relationship::P2P);
  v6.set(1, 2, Relationship::P2C);
  // (3,4): p2c v4, p2p v6 -> TransitV4PeerV6.
  v4.set(3, 4, Relationship::P2C);
  v6.set(3, 4, Relationship::P2P);
  // (5,6): p2c v4, c2p v6 -> Reversal.
  v4.set(5, 6, Relationship::P2C);
  v6.set(5, 6, Relationship::C2P);
  // (7,8): s2s v4, p2p v6 -> OtherMix.
  v4.set(7, 8, Relationship::S2S);
  v6.set(7, 8, Relationship::P2P);
  // (9,10): identical in both planes -> not hybrid.
  v4.set(9, 10, Relationship::P2C);
  v6.set(9, 10, Relationship::P2C);
  // (11,12): v6 side unknown -> not counted as "both known".
  v4.set(11, 12, Relationship::P2P);

  PathStore v6_paths;
  v6_paths.add({1, 2, 9});
  v6_paths.add({3, 4});
  v6_paths.add({9, 10});

  const std::vector<LinkKey> duals = {LinkKey(1, 2),  LinkKey(3, 4), LinkKey(5, 6),
                                      LinkKey(7, 8),  LinkKey(9, 10), LinkKey(11, 12)};
  const auto report = detect_hybrids(duals, v4, v6, v6_paths);

  EXPECT_EQ(report.dual_links_observed, 6u);
  EXPECT_EQ(report.dual_links_both_known, 5u);
  ASSERT_EQ(report.hybrids.size(), 4u);
  EXPECT_EQ(report.peer_v4_transit_v6, 1u);
  EXPECT_EQ(report.transit_v4_peer_v6, 1u);
  EXPECT_EQ(report.reversals, 1u);
  EXPECT_EQ(report.other_mix, 1u);
  EXPECT_NEAR(report.hybrid_fraction(), 4.0 / 5.0, 1e-9);

  // Path-level visibility: 2 of 3 v6 paths cross a hybrid link.
  EXPECT_EQ(report.v6_paths_total, 3u);
  EXPECT_EQ(report.v6_paths_with_hybrid, 2u);
}

TEST(HybridDetection, SortsByVisibility) {
  RelationshipMap v4;
  RelationshipMap v6;
  v4.set(1, 2, Relationship::P2P);
  v6.set(1, 2, Relationship::P2C);
  v4.set(3, 4, Relationship::P2P);
  v6.set(3, 4, Relationship::P2C);

  PathStore v6_paths;
  v6_paths.add({9, 3, 4});
  v6_paths.add({8, 3, 4});
  v6_paths.add({7, 3, 4, 5});
  v6_paths.add({9, 1, 2});

  const auto report =
      detect_hybrids({LinkKey(1, 2), LinkKey(3, 4)}, v4, v6, v6_paths);
  ASSERT_EQ(report.hybrids.size(), 2u);
  EXPECT_EQ(report.hybrids[0].link, LinkKey(3, 4));
  EXPECT_EQ(report.hybrids[0].v6_path_visibility, 3u);
  EXPECT_EQ(report.hybrids[1].v6_path_visibility, 1u);
}

TEST(HybridDetection, TierAttribution) {
  RelationshipMap v4;
  RelationshipMap v6;
  v4.set(1, 2, Relationship::P2P);
  v6.set(1, 2, Relationship::P2C);
  std::unordered_map<Asn, Tier> tiers{{1, Tier::Tier1}, {2, Tier::Tier2}};
  PathStore v6_paths;
  const auto report = detect_hybrids({LinkKey(1, 2)}, v4, v6, v6_paths, &tiers);
  EXPECT_EQ(report.endpoint_tiers.at(Tier::Tier1), 1u);
  EXPECT_EQ(report.endpoint_tiers.at(Tier::Tier2), 1u);
}

TEST(HybridDetection, RelationsAreCanonicalized) {
  RelationshipMap v4;
  RelationshipMap v6;
  // Set from the "wrong" side; detection must still agree with itself.
  v4.set(9, 2, Relationship::C2P);  // canonical: (2,9) P2C
  v6.set(2, 9, Relationship::P2P);
  PathStore v6_paths;
  const auto report = detect_hybrids({LinkKey(2, 9)}, v4, v6, v6_paths);
  ASSERT_EQ(report.hybrids.size(), 1u);
  EXPECT_EQ(report.hybrids[0].cls, HybridClass::TransitV4PeerV6);
}

// End-to-end: every hybrid the pipeline reports on a generated Internet must
// be a planted one (precision 1.0), across seeds.
class HybridPrecision : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridPrecision, NoFalsePositives) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(GetParam()));

  // Full wire round trip, as in the benches.
  mrt::MrtWriter writer;
  for (const auto& rec : mrt::records_from_rib(net.collect(), 1, "t", 0)) writer.write(rec);
  ThreadPool pool;
  mrt::MrtStreamReader stream(writer.data());
  const auto rib = mrt::rib_from_stream(stream, pool);
  const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
  const auto census = run_census(rib, dict, {}, pool);

  std::unordered_set<LinkKey, LinkKeyHash> planted;
  for (const auto& h : net.hybrid_links()) planted.insert(h.link);

  for (const auto& finding : census.hybrids.hybrids) {
    EXPECT_TRUE(planted.count(finding.link))
        << "false hybrid AS" << finding.link.first << "-AS" << finding.link.second;
    // And the reported relationships must match the planted truth exactly.
    EXPECT_EQ(finding.rel_v4,
              net.truth(IpVersion::V4).get(finding.link.first, finding.link.second));
    EXPECT_EQ(finding.rel_v6,
              net.truth(IpVersion::V6).get(finding.link.first, finding.link.second));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridPrecision, ::testing::Values(3, 4, 5, 6));

}  // namespace
}  // namespace htor::core
