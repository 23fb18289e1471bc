#include "core/rosetta.hpp"

namespace htor::core {

namespace {

std::size_t rel_index(Relationship rel) {
  switch (rel) {
    case Relationship::P2C: return 0;
    case Relationship::C2P: return 1;
    case Relationship::P2P: return 2;
    case Relationship::S2S: return 3;
    default: return 4;
  }
}

Relationship rel_from_index(std::size_t i) {
  constexpr std::array<Relationship, 4> kRels{Relationship::P2C, Relationship::C2P,
                                              Relationship::P2P, Relationship::S2S};
  return i < 4 ? kRels[i] : Relationship::Unknown;
}

/// First link of the route after collapsing prepends; false when the path is
/// too short.
bool first_hop(const mrt::ObservedRoute& route, Asn& vantage, Asn& next) {
  const auto& p = route.as_path;
  if (p.empty()) return false;
  vantage = p.front();
  for (Asn a : p) {
    if (a != vantage) {
      next = a;
      return true;
    }
  }
  return false;
}

/// Does the route carry a LocPrf-overriding TE community issued by `asn`?
bool has_te_override(const mrt::ObservedRoute& route, Asn asn,
                     const rpsl::CommunityDictionary& dict) {
  for (bgp::Community c : route.communities) {
    if (c.asn() != asn) continue;
    const rpsl::CommunityMeaning* meaning = dict.lookup(c);
    if (meaning != nullptr && meaning->kind == rpsl::CommunityTagKind::SetLocPref) return true;
  }
  // Well-known scoping communities also disqualify a route from calibration.
  for (bgp::Community c : route.communities) {
    if (c == bgp::kNoExport || c == bgp::kNoAdvertise) return true;
  }
  return false;
}

/// The samples' and the translation's key for a (vantage, LocPrf) pair.
std::uint64_t sample_key(Asn vantage, std::uint32_t locpref) {
  return static_cast<std::uint64_t>(vantage) << 32 | locpref;
}

}  // namespace

void RosettaSamples::learn(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                           const RelationshipMap& known, const RosettaParams& params) {
  if (!route.local_pref) return;
  Asn vantage = 0;
  Asn next = 0;
  if (!first_hop(route, vantage, next)) return;
  if (params.filter_te && has_te_override(route, vantage, dict)) {
    ++routes_te_filtered;
    return;
  }
  const std::size_t idx = rel_index(known.get(vantage, next));
  if (idx >= 4) return;
  ++counts[sample_key(vantage, *route.local_pref)][idx];
}

void RosettaSamples::merge(const RosettaSamples& other) {
  for (const auto& [key, theirs] : other.counts) {
    auto& mine = counts[key];
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] += theirs[i];
  }
  routes_te_filtered += other.routes_te_filtered;
}

RosettaTranslation::RosettaTranslation(const RosettaSamples& samples,
                                       const RosettaParams& params) {
  for (const auto& [key, counts] : samples.counts) {
    std::size_t nonzero = 0;
    std::size_t winner = 0;
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      total += counts[i];
      if (counts[i] > 0) {
        ++nonzero;
        winner = i;
      }
    }
    if (nonzero != 1) {
      ++values_ambiguous;
      continue;
    }
    if (total < params.min_samples) continue;
    rels.emplace(key, rel_from_index(winner));
  }
}

void RosettaHits::apply(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
                        const RelationshipMap& known, const RosettaTranslation& translation,
                        const RosettaParams& params) {
  if (!route.local_pref) return;
  Asn vantage = 0;
  Asn next = 0;
  if (!first_hop(route, vantage, next)) return;
  if (known.get(vantage, next) != Relationship::Unknown) return;
  if (params.filter_te && has_te_override(route, vantage, dict)) return;
  const auto it = translation.rels.find(sample_key(vantage, *route.local_pref));
  if (it == translation.rels.end()) return;
  if (seen_.insert(LinkKey(vantage, next)).second) first_hops.push_back({{vantage, next}, it->second});
  ++routes_resolved;
}

void RosettaHits::fold_into(RosettaResult& result) const {
  for (const auto& [hop, rel] : first_hops) {
    if (result.first_hop_rels.get(hop.first, hop.second) == Relationship::Unknown) {
      result.first_hop_rels.set(hop.first, hop.second, rel);
    }
  }
  result.routes_resolved += routes_resolved;
}

RosettaResult rosetta_result(const RosettaSamples& samples,
                             const RosettaTranslation& translation) {
  RosettaResult result;
  result.values_learned = translation.rels.size();
  result.values_ambiguous = translation.values_ambiguous;
  result.routes_te_filtered = samples.routes_te_filtered;
  return result;
}

RosettaResult run_rosetta(const std::vector<const mrt::ObservedRoute*>& routes,
                          const rpsl::CommunityDictionary& dict, const RelationshipMap& known,
                          const RosettaParams& params) {
  RosettaSamples samples;
  for (const mrt::ObservedRoute* route : routes) samples.learn(*route, dict, known, params);
  const RosettaTranslation translation(samples, params);
  RosettaHits hits;
  for (const mrt::ObservedRoute* route : routes) {
    hits.apply(*route, dict, known, translation, params);
  }
  RosettaResult result = rosetta_result(samples, translation);
  hits.fold_into(result);
  return result;
}

}  // namespace htor::core
