// Integration tests: the full pipeline — generate, propagate, serialize to
// MRT bytes, parse back, mine the IRR, infer, census — with cross-module
// invariants checked on the result.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/census_report.hpp"
#include "gen/internet.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"

namespace htor {
namespace {

struct PipelineResult {
  gen::SyntheticInternet net;
  mrt::ObservedRib rib;
  rpsl::CommunityDictionary dict;
  core::CensusReport census;
};

PipelineResult run_pipeline(std::uint64_t seed) {
  auto net = gen::SyntheticInternet::generate(gen::small_params(seed));
  mrt::MrtWriter writer;
  for (const auto& rec : mrt::records_from_rib(net.collect(), 0xc011ec7u, "it", 1281052800u)) {
    writer.write(rec);
  }
  ThreadPool pool;
  mrt::MrtStreamReader stream(writer.data());
  auto rib = mrt::rib_from_stream(stream, pool);
  auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
  auto census = core::run_census(rib, dict, {}, pool);
  return {std::move(net), std::move(rib), std::move(dict), std::move(census)};
}

const PipelineResult& pipeline() {
  static const PipelineResult result = run_pipeline(7);
  return result;
}

TEST(Integration, MrtRoundTripIsLossless) {
  const auto& p = pipeline();
  const auto direct = p.net.collect();
  ASSERT_EQ(p.rib.size(), direct.size());
  // Routes survive byte-level serialization exactly (as multisets).
  std::multiset<std::string> a;
  std::multiset<std::string> b;
  auto key = [](const mrt::ObservedRoute& r) {
    std::string k = r.prefix.to_string() + "|" + std::to_string(r.peer_asn) + "|";
    for (Asn asn : r.as_path) k += std::to_string(asn) + " ";
    k += "|" + std::to_string(r.local_pref.value_or(0)) + "|";
    for (auto c : r.communities) k += c.to_string() + " ";
    return k;
  };
  for (const auto& r : direct.routes()) a.insert(key(r));
  for (const auto& r : p.rib.routes()) b.insert(key(r));
  EXPECT_EQ(a, b);
}

TEST(Integration, CommunityInferenceIsExact) {
  const auto& p = pipeline();
  // Community-derived relationships are authoritative: no excuse for errors.
  std::size_t checked = 0;
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const auto& inferred =
        af == IpVersion::V4 ? p.census.inferred.community_v4 : p.census.inferred.community_v6;
    inferred.rels.for_each([&](const LinkKey& key, Relationship rel) {
      EXPECT_EQ(rel, p.net.truth(af).get(key.first, key.second))
          << to_string(af) << " AS" << key.first << "-AS" << key.second;
      ++checked;
    });
  }
  EXPECT_GT(checked, 100u);
}

TEST(Integration, RosettaIsNearExact) {
  // LocPrf translation can rarely mistype a first-hop link: a TE override
  // issued by an AS that does not publish its scheme is invisible to the TE
  // filter (the paper faced the same blind spot).  Accuracy must still be
  // near-perfect.
  const auto& p = pipeline();
  std::size_t checked = 0;
  std::size_t correct = 0;
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const auto& inferred = af == IpVersion::V4 ? p.census.inferred.v4 : p.census.inferred.v6;
    inferred.for_each([&](const LinkKey& key, Relationship rel) {
      ++checked;
      if (rel == p.net.truth(af).get(key.first, key.second)) ++correct;
    });
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GE(static_cast<double>(correct), 0.98 * static_cast<double>(checked));
}

TEST(Integration, CoverageIsSubstantialButNotTotal) {
  const auto& p = pipeline();
  EXPECT_GT(p.census.v6_coverage.fraction(), 0.4);
  EXPECT_LT(p.census.v6_coverage.fraction(), 1.0);  // unpublished ASes exist
  EXPECT_GT(p.census.v4_coverage.fraction(), 0.4);
}

TEST(Integration, DatasetShapeIsSane) {
  const auto& p = pipeline();
  EXPECT_GT(p.census.v6_paths, 100u);
  EXPECT_GT(p.census.v4_paths, p.census.v6_paths);  // v4 is the bigger plane
  EXPECT_GT(p.census.v6_links, 50u);
  EXPECT_GT(p.census.dual_links, 0u);
  EXPECT_LE(p.census.dual_links, p.census.v6_links);
  EXPECT_LE(p.census.dual_links, p.census.v4_links);
}

TEST(Integration, HybridFindingsMatchPlantedTruth) {
  const auto& p = pipeline();
  std::unordered_set<LinkKey, LinkKeyHash> planted;
  for (const auto& h : p.net.hybrid_links()) planted.insert(h.link);
  EXPECT_GT(p.census.hybrids.hybrids.size(), 0u);
  for (const auto& f : p.census.hybrids.hybrids) {
    EXPECT_TRUE(planted.count(f.link));
  }
}

TEST(Integration, ValleysOnlyInV6) {
  const auto& p = pipeline();
  EXPECT_EQ(p.census.v4_valleys.valley, 0u);
  EXPECT_GT(p.census.v6_valleys.valley, 0u);
  EXPECT_LT(p.census.v6_valleys.valley_fraction(), 0.5);
}

TEST(Integration, CensusIsDeterministic) {
  const auto again = run_pipeline(7);
  const auto& a = pipeline().census;
  const auto& b = again.census;
  EXPECT_EQ(a.v6_paths, b.v6_paths);
  EXPECT_EQ(a.v6_links, b.v6_links);
  EXPECT_EQ(a.dual_links, b.dual_links);
  EXPECT_EQ(a.hybrids.hybrids.size(), b.hybrids.hybrids.size());
  EXPECT_EQ(a.v6_valleys.valley, b.v6_valleys.valley);
  EXPECT_EQ(a.v6_valleys.necessary_valleys, b.v6_valleys.necessary_valleys);
  EXPECT_EQ(a.v6_coverage.covered_links, b.v6_coverage.covered_links);
}

TEST(Integration, ObservedTopologyIsSubsetOfTruth) {
  const auto& p = pipeline();
  for (const auto& link : p.census.v6_path_store.links()) {
    EXPECT_TRUE(p.net.graph().has_link(link.first, link.second, IpVersion::V6))
        << "phantom link AS" << link.first << "-AS" << link.second;
  }
  for (const auto& link : p.census.v4_path_store.links()) {
    EXPECT_TRUE(p.net.graph().has_link(link.first, link.second, IpVersion::V4));
  }
}

TEST(Integration, EveryObservedPathStartsAtAVantage) {
  const auto& p = pipeline();
  std::unordered_set<Asn> vantages(p.net.vantages().begin(), p.net.vantages().end());
  for (const auto& route : p.rib.routes()) {
    EXPECT_TRUE(vantages.count(route.peer_asn));
  }
}

TEST(Integration, DictionaryOnlyFromPublishedSchemes) {
  const auto& p = pipeline();
  for (std::uint16_t asn16 : p.dict.documented_asns()) {
    const auto& prof = p.net.profile(asn16);
    EXPECT_TRUE(prof.publishes_irr);
    EXPECT_FALSE(prof.cryptic_remarks);
  }
}

// The whole pipeline, parameterized over seeds, re-asserting the headline
// invariants (soundness + v4 valley-freeness) as a property.
class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, SoundInferenceAndCleanV4) {
  const auto p = run_pipeline(GetParam());
  // Community-derived links: exact.  Rosetta-extended map: near-exact (see
  // RosettaIsNearExact for the TE blind spot).
  p.census.inferred.community_v6.rels.for_each([&](const LinkKey& key, Relationship rel) {
    EXPECT_EQ(rel, p.net.truth(IpVersion::V6).get(key.first, key.second));
  });
  std::size_t checked = 0;
  std::size_t correct = 0;
  p.census.inferred.v6.for_each([&](const LinkKey& key, Relationship rel) {
    ++checked;
    if (rel == p.net.truth(IpVersion::V6).get(key.first, key.second)) ++correct;
  });
  EXPECT_GE(static_cast<double>(correct), 0.98 * static_cast<double>(checked));
  EXPECT_EQ(p.census.v4_valleys.valley, 0u);
  EXPECT_GT(p.census.v6_coverage.fraction(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace htor
