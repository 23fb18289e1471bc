// Relationship extraction from BGP Communities (the paper's §2 method).
//
// For an observed AS path  p0 p1 … pk  (p0 = vantage peer, pk = origin),
// a community  pi:v  whose mined meaning is a relationship ingress tag
// asserts how pi learned the route from p_{i+1}: "learned from customer"
// means p_{i+1} is pi's customer, i.e. rel(pi, p_{i+1}) = p2c.  Every
// observed route casts votes for the links its tags can localize; links are
// then typed by majority, and contradicting majorities are flagged instead
// of guessed.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"
#include "topology/relationship.hpp"

namespace htor::core {

struct CommunityInferenceParams {
  /// Minimum votes before a link is typed.
  std::uint32_t min_votes = 1;
  /// Majority requirement: winning relationship must hold at least this
  /// fraction of the link's votes.
  double majority = 0.6;
};

struct CommunityInferenceResult {
  RelationshipMap rels;
  std::size_t links_with_votes = 0;
  std::size_t conflicted_links = 0;  ///< votes present but no clear majority
  std::uint64_t tagged_routes = 0;   ///< routes that contributed >= 1 vote
  std::uint64_t total_votes = 0;
};

/// Raw vote state produced by scanning a batch of routes.  Per-link counts
/// add, so the census scans route shards on a thread pool and sums each
/// link's counts in its hash partition (core::infer_relationships).
struct CommunityVotes {
  /// Votes per canonical link, indexed P2C/C2P/P2P/S2S.
  std::unordered_map<LinkKey, std::array<std::uint32_t, 4>, LinkKeyHash> votes;
  std::uint64_t tagged_routes = 0;
  std::uint64_t total_votes = 0;
};

/// One vote: a link and its relationship's index (P2C/C2P/P2P/S2S, of the
/// canonical link).
struct LinkVote {
  LinkKey link;
  std::size_t rel = 0;
};

/// Replace `votes` with the votes of `route`'s localizable relationship
/// tags, in community order.  `chain` is scratch space, reused across
/// routes.
void route_votes(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                 std::vector<Asn>& chain, std::vector<LinkVote>& votes);

/// Scan routes[begin, end) for localizable relationship tags.
CommunityVotes scan_community_votes(const std::vector<const mrt::ObservedRoute*>& routes,
                                    std::size_t begin, std::size_t end,
                                    const rpsl::CommunityDictionary& dict);

/// The majority rule for one link's votes (indexed P2C/C2P/P2P/S2S, of the
/// canonical link): the winning relationship, or Unknown when the votes
/// conflict.
Relationship tally_link(const std::array<std::uint32_t, 4>& votes,
                        const CommunityInferenceParams& params);

/// Majority-type every voted link.  Depends only on the merged vote totals,
/// so the sharding that produced them cannot change the outcome.
CommunityInferenceResult tally_community_votes(const CommunityVotes& votes,
                                               const CommunityInferenceParams& params = {});

/// Infer relationships for one address family's routes: one scan over all
/// of them, then the tally.  (infer_relationships shards the scan itself.)
CommunityInferenceResult infer_from_communities(
    const std::vector<const mrt::ObservedRoute*>& routes,
    const rpsl::CommunityDictionary& dict, const CommunityInferenceParams& params = {});

}  // namespace htor::core
