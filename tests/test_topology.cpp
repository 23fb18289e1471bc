// Unit tests for the topology module: relationship maps, the per-family AS
// graph, and the path store.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "topology/as_graph.hpp"
#include "topology/path_store.hpp"
#include "topology/relationship.hpp"

namespace htor {
namespace {

TEST(Relationship, ReverseIsInvolution) {
  for (Relationship rel : {Relationship::P2C, Relationship::C2P, Relationship::P2P,
                           Relationship::S2S, Relationship::Unknown}) {
    EXPECT_EQ(reverse(reverse(rel)), rel);
  }
  EXPECT_EQ(reverse(Relationship::P2C), Relationship::C2P);
  EXPECT_EQ(reverse(Relationship::P2P), Relationship::P2P);
}

TEST(LinkKey, CanonicalOrder) {
  const LinkKey a(5, 3);
  EXPECT_EQ(a.first, 3u);
  EXPECT_EQ(a.second, 5u);
  EXPECT_EQ(a, LinkKey(3, 5));
  EXPECT_EQ(LinkKeyHash{}(a), LinkKeyHash{}(LinkKey(3, 5)));
}

TEST(RelationshipMap, DirectionalViews) {
  RelationshipMap rels;
  rels.set(1, 2, Relationship::P2C);  // 2 is 1's customer
  EXPECT_EQ(rels.get(1, 2), Relationship::P2C);
  EXPECT_EQ(rels.get(2, 1), Relationship::C2P);
  EXPECT_EQ(rels.get(1, 3), Relationship::Unknown);
  EXPECT_TRUE(rels.contains(2, 1));
  EXPECT_EQ(rels.size(), 1u);

  // Setting from the other side overwrites consistently.
  rels.set(2, 1, Relationship::P2P);
  EXPECT_EQ(rels.get(1, 2), Relationship::P2P);
  EXPECT_EQ(rels.size(), 1u);
}

TEST(RelationshipMap, NeighborQueries) {
  RelationshipMap rels;
  rels.set(10, 1, Relationship::P2C);
  rels.set(10, 2, Relationship::P2C);
  rels.set(10, 20, Relationship::P2P);
  rels.set(10, 30, Relationship::C2P);
  auto customers = rels.customers(10);
  std::sort(customers.begin(), customers.end());
  EXPECT_EQ(customers, (std::vector<Asn>{1, 2}));
  EXPECT_EQ(rels.peers(10), (std::vector<Asn>{20}));
  EXPECT_EQ(rels.providers(10), (std::vector<Asn>{30}));
  EXPECT_EQ(rels.providers(1), (std::vector<Asn>{10}));
  EXPECT_TRUE(rels.customers(99).empty());
}

TEST(RelationshipMap, Counts) {
  RelationshipMap rels;
  rels.set(1, 2, Relationship::P2C);
  rels.set(3, 4, Relationship::C2P);
  rels.set(5, 6, Relationship::P2P);
  rels.set(7, 8, Relationship::S2S);
  const auto c = rels.counts();
  EXPECT_EQ(c.transit, 2u);
  EXPECT_EQ(c.peering, 1u);
  EXPECT_EQ(c.sibling, 1u);
}

TEST(RelationshipMap, EraseAndForEach) {
  RelationshipMap rels;
  rels.set(1, 2, Relationship::P2C);
  rels.set(3, 4, Relationship::P2P);
  rels.erase(2, 1);
  EXPECT_EQ(rels.size(), 1u);
  int visits = 0;
  rels.for_each([&](const LinkKey& key, Relationship rel) {
    ++visits;
    EXPECT_EQ(key, LinkKey(3, 4));
    EXPECT_EQ(rel, Relationship::P2P);
  });
  EXPECT_EQ(visits, 1);
}

TEST(AsGraph, PerFamilyLinks) {
  AsGraph g;
  EXPECT_TRUE(g.add_link(1, 2, IpVersion::V4));
  EXPECT_FALSE(g.add_link(2, 1, IpVersion::V4));  // duplicate
  EXPECT_TRUE(g.add_link(1, 2, IpVersion::V6));   // same pair, other family
  EXPECT_TRUE(g.add_link(1, 3, IpVersion::V6));

  EXPECT_EQ(g.as_count(), 3u);
  EXPECT_EQ(g.link_count(IpVersion::V4), 1u);
  EXPECT_EQ(g.link_count(IpVersion::V6), 2u);
  EXPECT_EQ(g.dual_stack_link_count(), 1u);
  EXPECT_TRUE(g.has_link(1, 2, IpVersion::V4));
  EXPECT_FALSE(g.has_link(1, 3, IpVersion::V4));
  EXPECT_TRUE(g.has_link(1, 3));
  EXPECT_EQ(g.degree(1, IpVersion::V6), 2u);
  EXPECT_EQ(g.degree(1, IpVersion::V4), 1u);
  EXPECT_TRUE(g.neighbors(99, IpVersion::V4).empty());

  const auto duals = g.dual_stack_links();
  ASSERT_EQ(duals.size(), 1u);
  EXPECT_EQ(duals[0], LinkKey(1, 2));
  EXPECT_EQ(g.links(IpVersion::V6).size(), 2u);
}

TEST(AsGraph, SelfLinkRejected) {
  AsGraph g;
  EXPECT_THROW(g.add_link(1, 1, IpVersion::V4), InvalidArgument);
}

TEST(PathStore, DeduplicationAndCounts) {
  PathStore store;
  store.add({1, 2, 3});
  store.add({1, 2, 3});
  store.add({1, 2, 4});
  store.add({7});      // ignored: single AS
  store.add({});       // ignored: empty
  EXPECT_EQ(store.unique_paths(), 2u);
  EXPECT_EQ(store.total_occurrences(), 3u);

  std::uint64_t count_123 = 0;
  store.for_each([&](std::span<const Asn> path, std::uint64_t count) {
    if (std::ranges::equal(path, std::vector<Asn>{1, 2, 3})) count_123 = count;
  });
  EXPECT_EQ(count_123, 2u);
}

TEST(PathStore, LinkExtraction) {
  PathStore store;
  store.add({1, 2, 3});
  store.add({2, 3, 4});
  store.add({5, 5, 6});  // prepending collapses: only link 5-6
  const auto links = store.links();
  EXPECT_EQ(links.size(), 4u);  // 1-2, 2-3, 3-4, 5-6
  EXPECT_EQ(store.paths_containing(2, 3), 2u);
  EXPECT_EQ(store.paths_containing(3, 2), 2u);  // unordered
  EXPECT_EQ(store.paths_containing(1, 3), 0u);
  EXPECT_EQ(store.paths_containing(5, 6), 1u);
}

// A path that is one AS prepended has no link, so it is not a path of the
// table: it counts neither as a distinct path nor as an occurrence.
TEST(PathStore, PrependedSingleAsPathIgnored) {
  PathStore store;
  store.add({7, 7, 7});
  store.add({7, 7});
  EXPECT_EQ(store.unique_paths(), 0u);
  EXPECT_EQ(store.total_occurrences(), 0u);
  EXPECT_TRUE(store.links().empty());

  store.add({7, 7, 8});  // two distinct ASes once collapsed: kept verbatim
  EXPECT_EQ(store.unique_paths(), 1u);
  EXPECT_EQ(store.paths_containing(7, 8), 1u);
}

TEST(PathStore, PathCountedOncePerLink) {
  PathStore store;
  store.add({1, 2, 1, 2});  // pathological path repeating a link
  EXPECT_EQ(store.paths_containing(1, 2), 1u);
}

}  // namespace
}  // namespace htor
