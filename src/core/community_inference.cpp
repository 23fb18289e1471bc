#include "core/community_inference.hpp"

namespace htor::core {

namespace {

/// Write `path` with prepending collapsed into `out`, reusing its capacity.
void collapse(const std::vector<Asn>& path, std::vector<Asn>& out) {
  out.clear();
  for (Asn a : path) {
    if (out.empty() || out.back() != a) out.push_back(a);
  }
}

std::size_t rel_index(Relationship rel) {
  switch (rel) {
    case Relationship::P2C: return 0;
    case Relationship::C2P: return 1;
    case Relationship::P2P: return 2;
    case Relationship::S2S: return 3;
    case Relationship::Unknown: break;
  }
  return 4;
}

Relationship rel_from_index(std::size_t i) {
  switch (i) {
    case 0: return Relationship::P2C;
    case 1: return Relationship::C2P;
    case 2: return Relationship::P2P;
    case 3: return Relationship::S2S;
    default: return Relationship::Unknown;
  }
}

/// Returned by sole_position when the ASN is absent or occurs twice.
constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

/// Where `asn` sits on `chain` if it sits there exactly once.  An ASN that
/// appears twice post-collapse means a looped or poisoned path: a tag from
/// that AS cannot be localized to one link, so it counts as no position
/// rather than its first occurrence.  Chains are a few hops long, so a
/// linear scan beats any index.
std::size_t sole_position(const std::vector<Asn>& chain, Asn asn) {
  std::size_t found = kNoPosition;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain[i] != asn) continue;
    if (found != kNoPosition) return kNoPosition;
    found = i;
  }
  return found;
}

}  // namespace

void route_votes(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                 std::vector<Asn>& chain, std::vector<LinkVote>& votes) {
  votes.clear();
  collapse(route.as_path, chain);
  if (chain.size() < 2) return;

  for (bgp::Community community : route.communities) {
    const rpsl::CommunityMeaning* meaning = dict.lookup(community);
    if (meaning == nullptr || !rpsl::is_relationship_tag(meaning->kind)) continue;

    // Localize: the tagging AS must sit on this path exactly once, with a
    // next hop toward the origin.
    const std::size_t at = sole_position(chain, community.asn());
    if (at == kNoPosition || at + 1 >= chain.size()) continue;
    const Asn tagger = chain[at];
    const Asn from = chain[at + 1];

    const Relationship rel = rpsl::relationship_of(meaning->kind);  // rel(tagger, from)
    const LinkKey key(tagger, from);
    const Relationship canonical = key.first == tagger ? rel : reverse(rel);
    const std::size_t idx = rel_index(canonical);
    if (idx >= 4) continue;
    votes.push_back({key, idx});
  }
}

CommunityVotes scan_community_votes(const std::vector<const mrt::ObservedRoute*>& routes,
                                    std::size_t begin, std::size_t end,
                                    const rpsl::CommunityDictionary& dict) {
  CommunityVotes out;
  std::vector<Asn> chain;  // reused across routes
  std::vector<LinkVote> votes;
  for (std::size_t r = begin; r < end && r < routes.size(); ++r) {
    route_votes(*routes[r], dict, chain, votes);
    for (const LinkVote& vote : votes) ++out.votes[vote.link][vote.rel];
    out.total_votes += votes.size();
    if (!votes.empty()) ++out.tagged_routes;
  }
  return out;
}

Relationship tally_link(const std::array<std::uint32_t, 4>& vote,
                        const CommunityInferenceParams& params) {
  std::uint64_t total = 0;
  std::size_t best = 0;
  std::size_t with_max = 0;  // how many relationships share the top count
  for (std::size_t i = 0; i < 4; ++i) {
    total += vote[i];
    if (vote[i] > vote[best]) best = i;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    if (vote[i] == vote[best]) ++with_max;
  }
  // A tie for the top count (e.g. 1×P2C vs 1×P2P) is a contradiction, not
  // a winner — resolving it by enum order would silently prefer P2C.
  if (with_max > 1 || vote[best] < params.min_votes ||
      static_cast<double>(vote[best]) < params.majority * static_cast<double>(total)) {
    return Relationship::Unknown;
  }
  return rel_from_index(best);
}

CommunityInferenceResult tally_community_votes(const CommunityVotes& votes,
                                               const CommunityInferenceParams& params) {
  CommunityInferenceResult result;
  result.tagged_routes = votes.tagged_routes;
  result.total_votes = votes.total_votes;
  result.links_with_votes = votes.votes.size();
  for (const auto& [key, vote] : votes.votes) {
    const Relationship rel = tally_link(vote, params);
    if (rel == Relationship::Unknown) {
      ++result.conflicted_links;
    } else {
      result.rels.set(key.first, key.second, rel);
    }
  }
  return result;
}

CommunityInferenceResult infer_from_communities(
    const std::vector<const mrt::ObservedRoute*>& routes,
    const rpsl::CommunityDictionary& dict, const CommunityInferenceParams& params) {
  return tally_community_votes(scan_community_votes(routes, 0, routes.size(), dict), params);
}

}  // namespace htor::core
