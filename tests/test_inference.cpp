// Tests for the paper's inference core: community-based relationship
// extraction (direction, localization, voting) and the LocPrf Rosetta
// (learning, ambiguity, TE filtering, application).
#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace htor::core {
namespace {

using mrt::ObservedRoute;

rpsl::CommunityDictionary sample_dict() {
  rpsl::CommunityDictionary dict;
  // AS 100's scheme.
  dict.add(bgp::Community(100, 1), {rpsl::CommunityTagKind::FromCustomer, 0});
  dict.add(bgp::Community(100, 2), {rpsl::CommunityTagKind::FromPeer, 0});
  dict.add(bgp::Community(100, 3), {rpsl::CommunityTagKind::FromProvider, 0});
  dict.add(bgp::Community(100, 4), {rpsl::CommunityTagKind::FromSibling, 0});
  dict.add(bgp::Community(100, 70), {rpsl::CommunityTagKind::SetLocPref, 70});
  // AS 200's scheme.
  dict.add(bgp::Community(200, 10), {rpsl::CommunityTagKind::FromCustomer, 0});
  dict.add(bgp::Community(200, 20), {rpsl::CommunityTagKind::FromPeer, 0});
  return dict;
}

ObservedRoute route(IpVersion af, std::vector<Asn> path,
                    std::vector<bgp::Community> communities,
                    std::optional<std::uint32_t> locpref = std::nullopt) {
  ObservedRoute r;
  r.af = af;
  r.peer_asn = path.front();
  r.as_path = std::move(path);
  r.communities = std::move(communities);
  r.local_pref = locpref;
  return r;
}

TEST(CommunityInference, DirectionOfIngressTags) {
  // Path 100 <- 200 <- 300 (origin 300):
  //   100:1 ("from customer") localizes to link (100, 200): 200 is 100's
  //   customer; 200:20 ("from peer") types (200, 300) as p2p.
  const auto r = route(IpVersion::V4, {100, 200, 300},
                       {bgp::Community(100, 1), bgp::Community(200, 20)});
  const auto dict = sample_dict();
  const auto result = infer_from_communities({&r}, dict);
  EXPECT_EQ(result.rels.get(100, 200), Relationship::P2C);
  EXPECT_EQ(result.rels.get(200, 100), Relationship::C2P);
  EXPECT_EQ(result.rels.get(200, 300), Relationship::P2P);
  EXPECT_EQ(result.tagged_routes, 1u);
  EXPECT_EQ(result.total_votes, 2u);
}

TEST(CommunityInference, AllFourTagKinds) {
  const auto dict = sample_dict();
  for (auto [value, rel] :
       {std::pair{std::uint16_t{1}, Relationship::P2C}, std::pair{std::uint16_t{2}, Relationship::P2P},
        std::pair{std::uint16_t{3}, Relationship::C2P}, std::pair{std::uint16_t{4}, Relationship::S2S}}) {
    const auto r = route(IpVersion::V6, {100, 555}, {bgp::Community(100, value)});
    const auto result = infer_from_communities({&r}, dict);
    EXPECT_EQ(result.rels.get(100, 555), rel) << value;
  }
}

TEST(CommunityInference, TagFromAsNotOnPathIgnored) {
  // A community from AS 100 on a path that does not contain AS 100 cannot be
  // localized and must not vote.
  const auto r = route(IpVersion::V4, {200, 300}, {bgp::Community(100, 1)});
  const auto result = infer_from_communities({&r}, sample_dict());
  EXPECT_EQ(result.rels.size(), 0u);
  EXPECT_EQ(result.tagged_routes, 0u);
}

TEST(CommunityInference, OriginTagHasNoNextHop) {
  // The origin's own ingress tag points past the end of the path: ignored.
  const auto r = route(IpVersion::V4, {200, 100}, {bgp::Community(100, 1)});
  const auto result = infer_from_communities({&r}, sample_dict());
  EXPECT_EQ(result.rels.size(), 0u);
}

TEST(CommunityInference, TeAndGeoTagsDoNotVote) {
  const auto r = route(IpVersion::V4, {100, 300}, {bgp::Community(100, 70)});
  const auto result = infer_from_communities({&r}, sample_dict());
  EXPECT_EQ(result.rels.size(), 0u);
}

TEST(CommunityInference, PrependingDoesNotConfuseLocalization) {
  const auto r = route(IpVersion::V4, {100, 200, 200, 200, 300},
                       {bgp::Community(200, 10)});
  const auto result = infer_from_communities({&r}, sample_dict());
  EXPECT_EQ(result.rels.get(200, 300), Relationship::P2C);
}

TEST(CommunityInference, ConflictingVotesYieldUnknown) {
  const auto a = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 1)});
  const auto b = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 2)});
  const auto dict = sample_dict();
  const auto result = infer_from_communities({&a, &b}, dict);
  EXPECT_EQ(result.rels.get(100, 200), Relationship::Unknown);
  EXPECT_EQ(result.conflicted_links, 1u);

  // A clear majority resolves the conflict.
  const auto c = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 1)});
  const auto d = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 1)});
  const auto result2 = infer_from_communities({&a, &b, &c, &d}, dict);
  EXPECT_EQ(result2.rels.get(100, 200), Relationship::P2C);
}

TEST(CommunityInference, TieIsConflictedNotEnumOrder) {
  // Regression: 1×"from customer" vs 1×"from peer" on the same link is a
  // dead tie.  With a majority requirement of 0.5 the old tally let the tie
  // pass and resolved it to P2C purely because P2C has the lowest rel index.
  const auto a = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 1)});
  const auto b = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 2)});
  CommunityInferenceParams params;
  params.majority = 0.5;
  const auto result = infer_from_communities({&a, &b}, sample_dict(), params);
  EXPECT_EQ(result.rels.get(100, 200), Relationship::Unknown);
  EXPECT_EQ(result.rels.size(), 0u);
  EXPECT_EQ(result.conflicted_links, 1u);

  // A 2-vs-1 split at the same threshold is a genuine majority and resolves.
  const auto c = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 1)});
  const auto result2 = infer_from_communities({&a, &b, &c}, sample_dict(), params);
  EXPECT_EQ(result2.rels.get(100, 200), Relationship::P2C);
  EXPECT_EQ(result2.conflicted_links, 0u);
}

TEST(CommunityInference, LoopedPathTaggerVotesAreSkipped) {
  // Regression: on a looped/poisoned path the tagging AS appears twice
  // non-adjacently, so its ingress tag cannot be localized to one link.
  // The old scan kept only the first occurrence and voted on (100, 200);
  // the vote must be skipped entirely.
  const auto r = route(IpVersion::V4, {100, 200, 100, 300}, {bgp::Community(100, 1)});
  const auto result = infer_from_communities({&r}, sample_dict());
  EXPECT_EQ(result.rels.size(), 0u);
  EXPECT_EQ(result.total_votes, 0u);
  EXPECT_EQ(result.tagged_routes, 0u);

  // Tags from single-occurrence ASes on the same path still vote: AS 200
  // appears once, so its tag localizes to (200, 100) unambiguously.
  const auto s = route(IpVersion::V4, {100, 200, 100, 300},
                       {bgp::Community(100, 1), bgp::Community(200, 10)});
  const auto result2 = infer_from_communities({&s}, sample_dict());
  EXPECT_EQ(result2.total_votes, 1u);
  EXPECT_EQ(result2.rels.get(200, 100), Relationship::P2C);

  // Adjacent repeats are prepending, which collapse() already handles; the
  // collapsed single occurrence still votes.
  const auto t = route(IpVersion::V4, {100, 100, 200}, {bgp::Community(100, 1)});
  const auto result3 = infer_from_communities({&t}, sample_dict());
  EXPECT_EQ(result3.rels.get(100, 200), Relationship::P2C);
}

TEST(CommunityInference, MinVotesThreshold) {
  const auto r = route(IpVersion::V4, {100, 200}, {bgp::Community(100, 1)});
  CommunityInferenceParams params;
  params.min_votes = 2;
  const auto result = infer_from_communities({&r}, sample_dict(), params);
  EXPECT_EQ(result.rels.get(100, 200), Relationship::Unknown);
  EXPECT_EQ(result.conflicted_links, 1u);  // had votes, below threshold
}

// --- Rosetta ---------------------------------------------------------------

TEST(Rosetta, LearnsAndAppliesTranslation) {
  const auto dict = sample_dict();
  // Vantage 100: three tagged routes teach "locpref 120 == customer";
  // a fourth, untagged route with locpref 120 gets its first hop typed.
  std::vector<ObservedRoute> routes;
  for (Asn origin : {201u, 202u, 203u}) {
    routes.push_back(route(IpVersion::V4, {100, origin}, {bgp::Community(100, 1)}, 120));
  }
  routes.push_back(route(IpVersion::V4, {100, 299}, {}, 120));

  std::vector<const ObservedRoute*> ptrs;
  for (const auto& r : routes) ptrs.push_back(&r);
  const auto known = infer_from_communities(ptrs, dict);
  ASSERT_EQ(known.rels.get(100, 201), Relationship::P2C);
  ASSERT_EQ(known.rels.get(100, 299), Relationship::Unknown);

  const auto rosetta = run_rosetta(ptrs, dict, known.rels);
  EXPECT_EQ(rosetta.values_learned, 1u);
  EXPECT_EQ(rosetta.first_hop_rels.get(100, 299), Relationship::P2C);
  EXPECT_EQ(rosetta.routes_resolved, 1u);
}

TEST(Rosetta, AmbiguousValuesAreDiscarded) {
  const auto dict = sample_dict();
  std::vector<ObservedRoute> routes;
  // locpref 100 maps to customer on one route, peer on another.
  for (int i = 0; i < 3; ++i) {
    routes.push_back(route(IpVersion::V4, {100, 201}, {bgp::Community(100, 1)}, 100));
    routes.push_back(route(IpVersion::V4, {100, 202}, {bgp::Community(100, 2)}, 100));
  }
  routes.push_back(route(IpVersion::V4, {100, 299}, {}, 100));
  std::vector<const ObservedRoute*> ptrs;
  for (const auto& r : routes) ptrs.push_back(&r);
  const auto known = infer_from_communities(ptrs, dict);
  const auto rosetta = run_rosetta(ptrs, dict, known.rels);
  EXPECT_EQ(rosetta.values_learned, 0u);
  EXPECT_EQ(rosetta.values_ambiguous, 1u);
  EXPECT_EQ(rosetta.first_hop_rels.get(100, 299), Relationship::Unknown);
}

TEST(Rosetta, MinSamplesGate) {
  const auto dict = sample_dict();
  std::vector<ObservedRoute> routes;
  routes.push_back(route(IpVersion::V4, {100, 201}, {bgp::Community(100, 1)}, 150));
  std::vector<const ObservedRoute*> ptrs{&routes[0]};
  const auto known = infer_from_communities(ptrs, dict);
  RosettaParams params;
  params.min_samples = 3;
  const auto rosetta = run_rosetta(ptrs, dict, known.rels, params);
  EXPECT_EQ(rosetta.values_learned, 0u);
}

TEST(Rosetta, TeFilterExcludesOverriddenRoutes) {
  const auto dict = sample_dict();
  std::vector<ObservedRoute> routes;
  // Normal learning: locpref 120 == customer (x3).
  for (Asn o : {201u, 202u, 203u}) {
    routes.push_back(route(IpVersion::V4, {100, o}, {bgp::Community(100, 1)}, 120));
  }
  // A TE-overridden PEER route also shows locpref 120 — poison unless
  // filtered (x3, carrying the vantage's set-locpref community).
  for (Asn o : {211u, 212u, 213u}) {
    routes.push_back(route(IpVersion::V4, {100, o},
                           {bgp::Community(100, 2), bgp::Community(100, 70)}, 120));
  }
  routes.push_back(route(IpVersion::V4, {100, 299}, {}, 120));
  std::vector<const ObservedRoute*> ptrs;
  for (const auto& r : routes) ptrs.push_back(&r);
  const auto known = infer_from_communities(ptrs, dict);

  RosettaParams with_filter;
  const auto filtered = run_rosetta(ptrs, dict, known.rels, with_filter);
  EXPECT_EQ(filtered.first_hop_rels.get(100, 299), Relationship::P2C);
  EXPECT_GT(filtered.routes_te_filtered, 0u);

  RosettaParams no_filter;
  no_filter.filter_te = false;
  const auto unfiltered = run_rosetta(ptrs, dict, known.rels, no_filter);
  // Without the filter the value becomes ambiguous: nothing is learned.
  EXPECT_EQ(unfiltered.first_hop_rels.get(100, 299), Relationship::Unknown);
  EXPECT_EQ(unfiltered.values_ambiguous, 1u);
}

TEST(Rosetta, WellKnownCommunitiesDisqualify) {
  const auto dict = sample_dict();
  std::vector<ObservedRoute> routes;
  for (Asn o : {201u, 202u, 203u}) {
    routes.push_back(route(IpVersion::V4, {100, o}, {bgp::Community(100, 1)}, 120));
  }
  auto poisoned = route(IpVersion::V4, {100, 299}, {}, 120);
  poisoned.communities.push_back(bgp::kNoExport);
  routes.push_back(poisoned);
  std::vector<const ObservedRoute*> ptrs;
  for (const auto& r : routes) ptrs.push_back(&r);
  const auto known = infer_from_communities(ptrs, dict);
  const auto rosetta = run_rosetta(ptrs, dict, known.rels);
  // The NO_EXPORT route is not used for application either.
  EXPECT_EQ(rosetta.first_hop_rels.get(100, 299), Relationship::Unknown);
}

TEST(Pipeline, RosettaOnlyFillsGaps) {
  const auto dict = sample_dict();
  mrt::ObservedRib rib;
  for (Asn o : {201u, 202u, 203u}) {
    rib.add(route(IpVersion::V4, {100, o}, {bgp::Community(100, 1)}, 120));
  }
  rib.add(route(IpVersion::V4, {100, 299}, {}, 120));
  ThreadPool pool;
  const auto inferred = infer_relationships(rib, dict, {}, pool);
  EXPECT_EQ(inferred.v4.get(100, 299), Relationship::P2C);   // via Rosetta
  EXPECT_EQ(inferred.v4.get(100, 201), Relationship::P2C);   // via communities
  EXPECT_EQ(inferred.community_v4.rels.get(100, 299), Relationship::Unknown);

  InferenceConfig no_rosetta;
  no_rosetta.use_rosetta = false;
  const auto bare = infer_relationships(rib, dict, no_rosetta, pool);
  EXPECT_EQ(bare.v4.get(100, 299), Relationship::Unknown);
}

TEST(Pipeline, HelperFunctions) {
  mrt::ObservedRib rib;
  rib.add(route(IpVersion::V4, {1, 2, 3}, {}));
  rib.add(route(IpVersion::V6, {1, 2, 4}, {}));
  rib.add(route(IpVersion::V6, {5, 2, 1}, {}));
  ThreadPool pool;
  const auto v4 = paths_of(rib, IpVersion::V4, pool);
  const auto v6 = paths_of(rib, IpVersion::V6, pool);
  EXPECT_EQ(v4.unique_paths(), 1u);
  EXPECT_EQ(v6.unique_paths(), 2u);

  const auto duals = dual_stack_links(v4.links(), v6.links(), pool);
  ASSERT_EQ(duals.size(), 1u);
  EXPECT_EQ(duals[0], LinkKey(1, 2));

  RelationshipMap rels;
  rels.set(1, 2, Relationship::P2C);
  const auto cov = coverage(v4.links(), rels);
  EXPECT_EQ(cov.observed_links, 2u);
  EXPECT_EQ(cov.covered_links, 1u);
  EXPECT_DOUBLE_EQ(cov.fraction(), 0.5);
}

}  // namespace
}  // namespace htor::core
