#include "baselines/degree_rank.hpp"

#include <span>
#include <unordered_map>
#include <unordered_set>

namespace htor::baselines {

DegreeRankResult infer_degree_rank(const PathStore& paths, const DegreeRankParams& params) {
  // Transit degree: how many distinct (left, right) neighbor pairs an AS is
  // seen forwarding between.
  std::unordered_map<Asn, std::unordered_set<Asn>> transit_neighbors;
  std::unordered_map<Asn, std::unordered_set<Asn>> plain_neighbors;
  paths.for_each([&](std::span<const Asn> raw, std::uint64_t) {
    std::vector<Asn> path;
    for (Asn a : raw) {
      if (path.empty() || path.back() != a) path.push_back(a);
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      plain_neighbors[path[i]].insert(path[i + 1]);
      plain_neighbors[path[i + 1]].insert(path[i]);
    }
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      transit_neighbors[path[i]].insert(path[i - 1]);
      transit_neighbors[path[i]].insert(path[i + 1]);
    }
  });

  auto tdeg = [&](Asn asn) -> double {
    auto it = transit_neighbors.find(asn);
    // Smoothed: stubs have transit degree 0; +1 keeps ratios finite.
    return 1.0 + (it == transit_neighbors.end() ? 0.0 : static_cast<double>(it->second.size()));
  };

  DegreeRankResult result;
  for (const LinkKey& key : paths.links()) {
    const double ta = tdeg(key.first);
    const double tb = tdeg(key.second);
    const double ratio = std::max(ta, tb) / std::min(ta, tb);
    if (ratio < params.provider_ratio) {
      result.rels.set(key.first, key.second, Relationship::P2P);
      ++result.peer_links;
    } else if (ta > tb) {
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
