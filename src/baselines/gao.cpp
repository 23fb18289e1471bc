#include "baselines/gao.hpp"

#include <span>
#include <unordered_map>
#include <unordered_set>

namespace htor::baselines {

namespace {

/// Ordered-pair transit votes: key (u, v) counts "u is provider of v".
struct PairHash {
  std::size_t operator()(const std::pair<Asn, Asn>& p) const {
    return std::hash<std::uint64_t>()(static_cast<std::uint64_t>(p.first) << 32 | p.second);
  }
};

}  // namespace

GaoResult infer_gao(const PathStore& paths, const GaoParams& params) {
  // Phase 1: degrees from the observed paths.
  std::unordered_map<Asn, std::unordered_set<Asn>> neighbors;
  paths.for_each([&](std::span<const Asn> path, std::uint64_t) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == path[i + 1]) continue;
      neighbors[path[i]].insert(path[i + 1]);
      neighbors[path[i + 1]].insert(path[i]);
    }
  });
  auto degree = [&neighbors](Asn asn) -> std::size_t {
    auto it = neighbors.find(asn);
    return it == neighbors.end() ? 0 : it->second.size();
  };

  // Phase 2: transit votes.  Each path's peak (highest-degree AS) splits it
  // into a climbing part and a descending part.  The link between the peak
  // and its higher-degree neighbor is the path's *potential peering link*
  // (Gao's refined algorithm) and casts no transit vote — otherwise every
  // peering link would be stamped transit by the paths that cross it.
  std::unordered_map<std::pair<Asn, Asn>, std::uint64_t, PairHash> transit;
  paths.for_each([&](std::span<const Asn> raw, std::uint64_t) {
    std::vector<Asn> path;
    for (Asn a : raw) {
      if (path.empty() || path.back() != a) path.push_back(a);
    }
    if (path.size() < 2) return;
    std::size_t peak = 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (degree(path[i]) > degree(path[peak])) peak = i;
    }
    // Potential peering link: between the peak and whichever neighbor has
    // the higher degree (it is the plausible second "top" of the path).
    std::size_t peer_candidate;  // index i of link (p[i], p[i+1])
    if (peak == 0) {
      peer_candidate = 0;
    } else if (peak + 1 == path.size()) {
      peer_candidate = peak - 1;
    } else {
      peer_candidate =
          degree(path[peak - 1]) >= degree(path[peak + 1]) ? peak - 1 : peak;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (i == peer_candidate) continue;
      if (i < peak) {
        ++transit[{path[i + 1], path[i]}];  // climbing: p[i+1] provides for p[i]
      } else {
        ++transit[{path[i], path[i + 1]}];  // descending
      }
    }
  });

  // Phase 3: assign transit / sibling from the votes.
  GaoResult result;
  std::unordered_set<LinkKey, LinkKeyHash> voted;
  for (const auto& [pair, votes] : transit) {
    const LinkKey key(pair.first, pair.second);
    if (!voted.insert(key).second) continue;
    auto fwd = transit.find({key.first, key.second});
    auto rev = transit.find({key.second, key.first});
    const std::uint64_t f = fwd == transit.end() ? 0 : fwd->second;
    const std::uint64_t r = rev == transit.end() ? 0 : rev->second;
    if (f > 0 && r > 0 &&
        static_cast<double>(std::min(f, r)) >=
            params.sibling_ratio * static_cast<double>(std::max(f, r))) {
      result.rels.set(key.first, key.second, Relationship::S2S);
      ++result.sibling_links;
    } else if (f >= r) {
      result.rels.set(key.first, key.second, Relationship::P2C);
      ++result.transit_links;
    } else {
      result.rels.set(key.first, key.second, Relationship::C2P);
      ++result.transit_links;
    }
  }

  // Phase 4: links that never drew a transit vote sit at path peaks; peers
  // when the endpoint degrees are comparable, otherwise the bigger side is
  // assumed the provider.
  for (const LinkKey& key : paths.links()) {
    if (result.rels.contains(key)) continue;
    const double da = static_cast<double>(degree(key.first));
    const double db = static_cast<double>(degree(key.second));
    const double ratio = (da < 1 || db < 1) ? params.peer_degree_ratio + 1
                                            : std::max(da, db) / std::min(da, db);
    if (ratio <= params.peer_degree_ratio) {
      result.rels.set(key.first, key.second, Relationship::P2P);
      ++result.peer_links;
    } else if (da >= db) {
      result.rels.set(key.first, key.second, Relationship::P2C);
      ++result.transit_links;
    } else {
      result.rels.set(key.first, key.second, Relationship::C2P);
      ++result.transit_links;
    }
  }
  return result;
}

}  // namespace htor::baselines
