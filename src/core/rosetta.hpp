// The LocPrf "Rosetta stone" (paper §2).
//
// LocPrf values are operator-local: 100 may mean "customer" at one AS and
// "backup provider" at another.  Routes whose first-hop relationship is
// already known from communities *translate* the vantage's LocPrf scheme:
// once a (vantage, LocPrf value) pair is seen consistently with one
// relationship, the value can type first-hop links that communities did not
// cover.  Routes carrying a traffic-engineering community that overrides
// LocPrf are excluded from both learning and application — without this
// filter the scheme learns noise (quantified by bench_ablation_inference).
//
// The method is three steps, each exposed so the census can shard the two
// route passes: RosettaSamples::learn over every route (shards merge by
// adding counts), one RosettaTranslation over the merged samples, then
// RosettaHits::apply over every route (shards merge first-wins, in route
// order).  run_rosetta is the three steps over one route list.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"
#include "topology/relationship.hpp"

namespace htor::core {

struct RosettaParams {
  /// Samples required before a (vantage, value) pair is trusted.
  std::uint32_t min_samples = 3;
  /// Disable the TE filter (ablation only; keeps SetLocPref-tagged routes).
  bool filter_te = true;
};

struct RosettaResult {
  /// First-hop links typed by LocPrf translation (links already covered by
  /// communities are never re-typed here).
  RelationshipMap first_hop_rels;
  std::size_t values_learned = 0;    ///< usable (vantage, value) entries
  std::size_t values_ambiguous = 0;  ///< value maps to >1 relationship
  std::uint64_t routes_te_filtered = 0;
  std::uint64_t routes_resolved = 0;  ///< routes whose first hop got typed
};

/// Learning pass: per-(vantage, LocPrf) sample counts, indexed
/// P2C/C2P/P2P/S2S, of routes whose first hop `known` already types.
struct RosettaSamples {
  /// Keyed vantage << 32 | LocPrf.
  std::unordered_map<std::uint64_t, std::array<std::uint32_t, 4>> counts;
  std::uint64_t routes_te_filtered = 0;

  void learn(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
             const RelationshipMap& known, const RosettaParams& params);
  /// Counts add, so merging the samples of disjoint route runs gives the
  /// samples of their union.
  void merge(const RosettaSamples& other);
};

/// Consolidation: a value is usable when exactly one relationship explains
/// all its samples and the sample count clears the threshold.
struct RosettaTranslation {
  RosettaTranslation(const RosettaSamples& samples, const RosettaParams& params);

  std::unordered_map<std::uint64_t, Relationship> rels;  ///< keyed as the samples
  std::size_t values_ambiguous = 0;
};

/// Application pass: first-hop links typed by the translation that `known`
/// leaves Unknown, each with the relationship of its first route.
struct RosettaHits {
  /// (vantage, next hop) and rel(vantage, next hop), first occurrence first.
  std::vector<std::pair<std::pair<Asn, Asn>, Relationship>> first_hops;
  std::uint64_t routes_resolved = 0;

  void apply(const mrt::ObservedRoute& route, const rpsl::CommunityDictionary& dict,
             const RelationshipMap& known, const RosettaTranslation& translation,
             const RosettaParams& params);
  /// Fold into `result`: counts add, and a first hop already typed there
  /// keeps its relationship, so folding the hits of consecutive route runs
  /// in order equals the hits of the whole list.
  void fold_into(RosettaResult& result) const;

 private:
  std::unordered_set<LinkKey, LinkKeyHash> seen_;  ///< the links of first_hops
};

/// The whole method over one route list.
RosettaResult run_rosetta(const std::vector<const mrt::ObservedRoute*>& routes,
                          const rpsl::CommunityDictionary& dict, const RelationshipMap& known,
                          const RosettaParams& params = {});

/// A translation's counts and the learning pass's filter count, with no
/// first hops yet: the result every fold_into starts from.
RosettaResult rosetta_result(const RosettaSamples& samples,
                             const RosettaTranslation& translation);

}  // namespace htor::core
