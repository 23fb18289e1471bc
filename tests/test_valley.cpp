// Unit tests for the valley-free checker, with a parameterized pattern table
// covering the classic valid and invalid relationship sequences.
#include <gtest/gtest.h>

#include "topology/valley.hpp"

namespace htor {
namespace {

// Build a relationship map for a linear path 1-2-3-...-n from the sequence
// of link relationships (rel(i, i+1)).
RelationshipMap chain(const std::vector<Relationship>& rels) {
  RelationshipMap map;
  for (std::size_t i = 0; i < rels.size(); ++i) {
    if (rels[i] != Relationship::Unknown) {
      map.set(static_cast<Asn>(i + 1), static_cast<Asn>(i + 2), rels[i]);
    }
  }
  return map;
}

std::vector<Asn> path_of_length(std::size_t links) {
  std::vector<Asn> path;
  for (std::size_t i = 0; i <= links; ++i) path.push_back(static_cast<Asn>(i + 1));
  return path;
}

struct PatternCase {
  std::vector<Relationship> rels;
  PathPolicyClass expected;
};

class ValleyPatterns : public ::testing::TestWithParam<PatternCase> {};

TEST_P(ValleyPatterns, Classified) {
  const auto& c = GetParam();
  const auto map = chain(c.rels);
  const auto result = check_valley_free(path_of_length(c.rels.size()), map);
  EXPECT_EQ(result.cls, c.expected);
}

constexpr auto P2C = Relationship::P2C;
constexpr auto C2P = Relationship::C2P;
constexpr auto P2P = Relationship::P2P;
constexpr auto S2S = Relationship::S2S;
constexpr auto UNK = Relationship::Unknown;

INSTANTIATE_TEST_SUITE_P(
    Patterns, ValleyPatterns,
    ::testing::Values(
        // Valid: pure climb, pure descend, climb-peak-descend.
        PatternCase{{C2P, C2P}, PathPolicyClass::ValleyFree},
        PatternCase{{P2C, P2C}, PathPolicyClass::ValleyFree},
        PatternCase{{C2P, P2P, P2C}, PathPolicyClass::ValleyFree},
        PatternCase{{C2P, P2C}, PathPolicyClass::ValleyFree},
        PatternCase{{P2P}, PathPolicyClass::ValleyFree},
        PatternCase{{P2P, P2C, P2C}, PathPolicyClass::ValleyFree},
        PatternCase{{C2P, C2P, P2P}, PathPolicyClass::ValleyFree},
        // Siblings are transparent anywhere.
        PatternCase{{C2P, S2S, P2P, S2S, P2C}, PathPolicyClass::ValleyFree},
        PatternCase{{S2S, S2S}, PathPolicyClass::ValleyFree},
        // Valleys: descend then climb, two peering links, peer then climb.
        PatternCase{{P2C, C2P}, PathPolicyClass::Valley},
        PatternCase{{P2P, P2P}, PathPolicyClass::Valley},
        PatternCase{{P2P, C2P}, PathPolicyClass::Valley},
        PatternCase{{C2P, P2P, C2P}, PathPolicyClass::Valley},
        PatternCase{{C2P, P2C, P2P}, PathPolicyClass::Valley},
        PatternCase{{P2C, P2P}, PathPolicyClass::Valley},
        PatternCase{{P2C, S2S, C2P}, PathPolicyClass::Valley},  // sibling hides no valley
        // Unknown links.
        PatternCase{{C2P, UNK, P2C}, PathPolicyClass::Incomplete},
        PatternCase{{UNK}, PathPolicyClass::Incomplete},
        // A definite violation outweighs the unknown.
        PatternCase{{P2C, C2P, UNK}, PathPolicyClass::Valley}));

TEST(ValleyCheck, TrivialPaths) {
  const RelationshipMap empty;
  EXPECT_EQ(check_valley_free(std::vector<Asn>{}, empty).cls, PathPolicyClass::ValleyFree);
  EXPECT_EQ(check_valley_free(std::vector<Asn>{42}, empty).cls, PathPolicyClass::ValleyFree);
}

TEST(ValleyCheck, PrependingIsCollapsed) {
  RelationshipMap map;
  map.set(1, 2, Relationship::C2P);
  map.set(2, 3, Relationship::P2C);
  // 2 prepended twice: the 2-2 "link" must not be treated as unknown.
  const auto result = check_valley_free(std::vector<Asn>{1, 2, 2, 2, 3}, map);
  EXPECT_EQ(result.cls, PathPolicyClass::ValleyFree);
  EXPECT_EQ(result.unknown_links, 0u);
}

TEST(ValleyCheck, ReportsFirstViolation) {
  const auto map = chain({C2P, P2C, C2P, P2C});
  const auto result = check_valley_free(path_of_length(4), map);
  ASSERT_EQ(result.cls, PathPolicyClass::Valley);
  ASSERT_TRUE(result.first_violation.has_value());
  EXPECT_EQ(*result.first_violation, 2u);  // the second climb
}

// first_violation indexes the path with prepending collapsed.
TEST(ValleyCheck, FirstViolationIndexesTheCollapsedPath) {
  const auto map = chain({C2P, P2C, C2P, P2C});
  const auto result = check_valley_free(std::vector<Asn>{1, 1, 2, 3, 3, 3, 4, 5}, map);
  ASSERT_EQ(result.cls, PathPolicyClass::Valley);
  ASSERT_TRUE(result.first_violation.has_value());
  EXPECT_EQ(*result.first_violation, 2u);
}

TEST(ValleyCheck, CountsPeerLinks) {
  const auto map = chain({P2P, P2C, C2P, P2P});
  const auto result = check_valley_free(path_of_length(4), map);
  EXPECT_EQ(result.peer_links, 2u);
  EXPECT_EQ(result.cls, PathPolicyClass::Valley);
}

TEST(ValleyCheck, SymmetricUnderReversal) {
  // A valley-free path read backwards is still valley-free, and a valley
  // stays a valley.
  for (const auto& rels :
       {std::vector<Relationship>{C2P, P2P, P2C}, std::vector<Relationship>{P2C, C2P},
        std::vector<Relationship>{C2P, C2P, P2C, P2C}}) {
    const auto map = chain(rels);
    auto path = path_of_length(rels.size());
    const auto fwd = check_valley_free(path, map);
    std::reverse(path.begin(), path.end());
    const auto rev = check_valley_free(path, map);
    EXPECT_EQ(fwd.cls, rev.cls);
  }
}

TEST(ValleyCheck, IsValleyFreeHelper) {
  const auto vf = chain({C2P, P2C});
  EXPECT_TRUE(is_valley_free(path_of_length(2), vf));
  const auto incomplete = chain({C2P, UNK});
  EXPECT_TRUE(is_valley_free(path_of_length(2), incomplete, /*strict=*/false));
  EXPECT_FALSE(is_valley_free(path_of_length(2), incomplete, /*strict=*/true));
}

}  // namespace
}  // namespace htor
