// Tests for the valley census: classification plumbing and the necessity
// test (no valley-free alternative), on handcrafted maps and on the
// generated Internet.  The handcrafted stores hold fewer paths than the
// census has shards, so each path is classified in its own shard and the
// known answers also pin the shard reduce.
#include <gtest/gtest.h>

#include "core/valley_census.hpp"
#include "gen/internet.hpp"

namespace htor::core {
namespace {

TEST(ValleyCensus, CountsClasses) {
  RelationshipMap rels;
  rels.set(1, 2, Relationship::C2P);
  rels.set(2, 3, Relationship::P2C);
  rels.set(3, 4, Relationship::C2P);  // 2-3-4 is a valley turn
  rels.set(5, 6, Relationship::P2P);

  PathStore paths;
  paths.add({1, 2, 3});     // valley-free (up, down)
  paths.add({2, 3, 4});     // valley (down then up)
  paths.add({1, 2, 3, 4});  // valley
  paths.add({5, 6, 7});     // incomplete: 6-7 unknown

  ThreadPool pool;
  const auto census = census_valleys(paths, rels, pool);
  EXPECT_EQ(census.paths, 4u);
  EXPECT_EQ(census.valley_free, 1u);
  EXPECT_EQ(census.valley, 2u);
  EXPECT_EQ(census.incomplete, 1u);
  EXPECT_NEAR(census.valley_fraction(), 0.5, 1e-9);
}

TEST(ValleyCensus, NecessityDetection) {
  // Two hierarchies joined ONLY by the leak link 2-5 (p2p):
  //   1 -p2c-> 2,   4 -p2c-> 5;  path 2..5 crossing after a descent is a
  //   valley, and there is no valley-free alternative: necessary.
  RelationshipMap rels;
  rels.set(1, 2, Relationship::P2C);
  rels.set(4, 5, Relationship::P2C);
  rels.set(2, 5, Relationship::P2P);

  // 1 -> 2 -> 5 -> 4?  rel(5,4)=c2p: climb after peer: valley.
  PathStore paths;
  paths.add({1, 2, 5, 4});

  ThreadPool pool;
  const auto census = census_valleys(paths, rels, pool);
  ASSERT_EQ(census.valley, 1u);
  EXPECT_EQ(census.classified_valleys, 1u);
  EXPECT_EQ(census.necessary_valleys, 1u);
  EXPECT_TRUE(valley_is_necessary(1, 4, rels));
  EXPECT_FALSE(valley_is_necessary(1, 2, rels));
}

TEST(ValleyCensus, UnnecessaryValleyDetected) {
  // Stub 3 reaches 7 across two peering links (2-5, 5-7): a valley.  But a
  // common provider 9 offers a valley-free detour (3 up 2 up 9 down 7), so
  // the valley is gratuitous, not reachability-required.
  RelationshipMap rels;
  rels.set(2, 3, Relationship::P2C);
  rels.set(2, 5, Relationship::P2P);
  rels.set(5, 7, Relationship::P2P);
  rels.set(9, 2, Relationship::P2C);
  rels.set(9, 7, Relationship::P2C);

  PathStore paths;
  paths.add({3, 2, 5, 7});

  ThreadPool pool;
  const auto census = census_valleys(paths, rels, pool);
  ASSERT_EQ(census.valley, 1u);
  EXPECT_EQ(census.classified_valleys, 1u);
  EXPECT_EQ(census.necessary_valleys, 0u);
  EXPECT_NEAR(census.necessary_fraction(), 0.0, 1e-9);
  EXPECT_FALSE(valley_is_necessary(3, 7, rels));
}

TEST(ValleyCensus, ValleysWithUnknownGapsAreNotClassified) {
  RelationshipMap rels;
  rels.set(1, 2, Relationship::P2C);
  rels.set(2, 3, Relationship::C2P);  // definite valley at 1-2-3
  // 3-4 left unknown.
  PathStore paths;
  paths.add({1, 2, 3, 4});
  ThreadPool pool;
  const auto census = census_valleys(paths, rels, pool);
  EXPECT_EQ(census.valley, 1u);
  EXPECT_EQ(census.classified_valleys, 0u);
}

TEST(ValleyCensus, EmptyStore) {
  ThreadPool pool;
  const auto census = census_valleys(PathStore{}, RelationshipMap{}, pool);
  EXPECT_EQ(census.paths, 0u);
  EXPECT_EQ(census.valley_fraction(), 0.0);
  EXPECT_EQ(census.necessary_fraction(), 0.0);
}

// Property over generated Internets: the IPv4 plane (no relaxation there)
// must contain no valley paths at all under ground-truth relationships.
class V4ValleyFree : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(V4ValleyFree, GroundTruthV4HasNoValleys) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(GetParam()));
  const auto rib = net.collect();
  PathStore v4;
  for (const auto& route : rib.routes()) {
    if (route.af == IpVersion::V4) v4.add(route.as_path);
  }
  ThreadPool pool;
  const auto census = census_valleys(v4, net.truth(IpVersion::V4), pool);
  EXPECT_EQ(census.valley, 0u);
  EXPECT_EQ(census.incomplete, 0u);  // ground truth covers every link
  EXPECT_GT(census.paths, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, V4ValleyFree, ::testing::Values(1, 2, 3, 4));

// And the IPv6 plane must contain SOME valleys (relaxation is on), all of
// which are genuine policy violations under ground truth.
TEST(ValleyCensusGen, V6HasValleysUnderGroundTruth) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
  const auto rib = net.collect();
  PathStore v6;
  for (const auto& route : rib.routes()) {
    if (route.af == IpVersion::V6) v6.add(route.as_path);
  }
  ThreadPool pool;
  const auto census = census_valleys(v6, net.truth(IpVersion::V6), pool);
  EXPECT_GT(census.valley, 0u);
  EXPECT_GT(census.paths, census.valley);  // not everything is a valley
}

}  // namespace
}  // namespace htor::core
