#include "core/hybrid.hpp"

#include <algorithm>
#include <span>
#include <unordered_set>

namespace htor::core {

const char* to_string(HybridClass cls) {
  switch (cls) {
    case HybridClass::PeerV4TransitV6: return "p2p(v4)/transit(v6)";
    case HybridClass::TransitV4PeerV6: return "transit(v4)/p2p(v6)";
    case HybridClass::Reversal: return "p2c(v4)/c2p(v6)";
    case HybridClass::OtherMix: return "other";
  }
  return "?";
}

namespace {

HybridClass classify(Relationship v4, Relationship v6) {
  const bool v4_transit = is_transit(v4);
  const bool v6_transit = is_transit(v6);
  if (v4 == Relationship::P2P && v6_transit) return HybridClass::PeerV4TransitV6;
  if (v4_transit && v6 == Relationship::P2P) return HybridClass::TransitV4PeerV6;
  if (v4_transit && v6_transit && v4 != v6) return HybridClass::Reversal;
  return HybridClass::OtherMix;
}

}  // namespace

HybridReport detect_hybrids(const std::vector<LinkKey>& dual_links, const RelationshipMap& v4,
                            const RelationshipMap& v6, const PathStore& v6_paths,
                            const std::unordered_map<Asn, Tier>* tiers) {
  HybridReport report;
  report.dual_links_observed = dual_links.size();

  std::unordered_set<LinkKey, LinkKeyHash> hybrid_set;
  for (const LinkKey& key : dual_links) {
    const Relationship r4 = v4.get(key.first, key.second);
    const Relationship r6 = v6.get(key.first, key.second);
    if (r4 == Relationship::Unknown || r6 == Relationship::Unknown) continue;
    ++report.dual_links_both_known;
    if (r4 == r6) continue;

    HybridFinding finding;
    finding.link = key;
    finding.rel_v4 = r4;
    finding.rel_v6 = r6;
    finding.cls = classify(r4, r6);
    finding.v6_path_visibility = v6_paths.paths_containing(key.first, key.second);
    switch (finding.cls) {
      case HybridClass::PeerV4TransitV6: ++report.peer_v4_transit_v6; break;
      case HybridClass::TransitV4PeerV6: ++report.transit_v4_peer_v6; break;
      case HybridClass::Reversal: ++report.reversals; break;
      case HybridClass::OtherMix: ++report.other_mix; break;
    }
    if (tiers != nullptr) {
      for (Asn endpoint : {key.first, key.second}) {
        auto it = tiers->find(endpoint);
        if (it != tiers->end()) ++report.endpoint_tiers[it->second];
      }
    }
    hybrid_set.insert(key);
    report.hybrids.push_back(std::move(finding));
  }

  std::sort(report.hybrids.begin(), report.hybrids.end(),
            [](const HybridFinding& a, const HybridFinding& b) {
              if (a.v6_path_visibility != b.v6_path_visibility) {
                return a.v6_path_visibility > b.v6_path_visibility;
              }
              return a.link < b.link;
            });

  report.v6_paths_total = v6_paths.unique_paths();
  v6_paths.for_each([&](std::span<const Asn> path, std::uint64_t) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == path[i + 1]) continue;
      if (hybrid_set.count(LinkKey(path[i], path[i + 1]))) {
        ++report.v6_paths_with_hybrid;
        return;
      }
    }
  });
  return report;
}

}  // namespace htor::core
