// The synthetic Internet: ground-truth topology, relationships, policies,
// community schemes, and the collector that observes it.
//
// This is the substitution substrate for RouteViews/RIPE RIS + IRR
// (DESIGN.md §2): everything the paper measures on the real Internet is an
// emergent observable of this object, and the inference pipeline must
// *recover* the planted ground truth from wire-format data only.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gen/params.hpp"
#include "mrt/rib_view.hpp"
#include "netbase/prefix.hpp"
#include "propagation/policy.hpp"
#include "topology/as_graph.hpp"
#include "topology/relationship.hpp"
#include "topology/tier.hpp"

namespace htor::gen {

/// Ground truth about one planted hybrid link.
struct HybridLink {
  LinkKey link;
  Relationship rel_v4 = Relationship::Unknown;  ///< rel(link.first -> link.second) in IPv4
  Relationship rel_v6 = Relationship::Unknown;  ///< same direction, IPv6

  friend bool operator==(const HybridLink&, const HybridLink&) = default;
};

/// Everything the generator decided about one AS.
struct AsProfile {
  Asn asn = 0;
  Tier tier = Tier::Stub;
  bool v6_capable = false;

  prop::NodePolicy policy;  ///< LocPrf scheme, prepending; relaxed_export is v6-only

  // Community behaviour.
  bool publishes_irr = false;   ///< documents its scheme in the IRR
  bool tags_relationships = false;
  bool strips_communities = false;
  bool geo_tags = false;
  bool te_enabled = false;
  bool cryptic_remarks = false;  ///< publishes, but in uninterpretable prose

  int phrasing_style = 0;  ///< which IRR remark dialect the AS writes

  // Community scheme values (the <asn>:<value> halves).
  std::uint16_t c_customer = 0;
  std::uint16_t c_peer = 0;
  std::uint16_t c_provider = 0;
  std::uint16_t c_sibling = 0;
  std::uint16_t c_te_locpref = 0;  ///< "set local-pref to te_locpref_value"
  std::uint16_t c_prepend = 0;
  std::uint16_t c_geo_base = 0;   ///< geo tags use c_geo_base .. c_geo_base+3

  std::uint32_t te_locpref_value = 0;  ///< the LocPrf the TE community sets
};

class SyntheticInternet {
 public:
  static SyntheticInternet generate(const GenParams& params);

  const GenParams& params() const { return params_; }
  const AsGraph& graph() const { return graph_; }

  /// Ground-truth relationships of one plane.
  const RelationshipMap& truth(IpVersion af) const {
    return af == IpVersion::V4 ? rels_v4_ : rels_v6_;
  }

  const std::vector<HybridLink>& hybrid_links() const { return hybrids_; }
  const std::vector<Asn>& vantages() const { return vantages_; }
  const std::vector<Asn>& relaxed_ases() const { return relaxed_; }

  const AsProfile& profile(Asn asn) const;
  Tier tier_of(Asn asn) const { return profile(asn).tier; }
  bool v6_capable(Asn asn) const { return profile(asn).v6_capable; }

  /// The two tier-1s of the IPv6 peering dispute (0,0 when disabled).
  std::pair<Asn, Asn> dispute_pair() const { return dispute_; }

  /// The Hurricane-Electric-style IPv6 evangelist tier-1 (0 when disabled).
  Asn evangelist() const { return evangelist_; }

  /// The prefix `asn` originates in family `af`.
  Prefix prefix_of(Asn asn, IpVersion af) const;
  /// Inverse of prefix_of; 0 when the prefix is not a generated one.
  Asn origin_of(const Prefix& prefix) const;

  /// ASes that participate in the IPv6 plane.
  std::vector<Asn> v6_ases() const;

  /// TE LocPrf overrides (shared by the engine and the tag reconstruction).
  const prop::TeOverrides& te_overrides() const { return te_; }

  /// Deterministic: does `asn` attach a geo community to routes of `origin`?
  bool geo_tag_applies(Asn asn, Asn origin) const;

  /// The IRR dump text (aut-num objects of all publishing ASes).
  std::string irr_dump() const;

  /// Run both propagation planes and observe them from the vantages.
  /// The result is what a RouteViews-style collector would have in its RIB.
  mrt::ObservedRib collect() const;

  /// The internet-scale collector: instead of propagating every origin
  /// through the whole graph (O(N·E) — infeasible at scale_params size),
  /// synthesize one deterministic customer-to-provider route per
  /// (vantage, origin) pair by joining the two ASes' memoized uplink
  /// chains.  IPv4 only, no communities; O(N · max_vantages) overall.
  /// This is what `generate --scale` writes: input for ingest, census and
  /// serving at scale, not for relationship-inference experiments.
  mrt::ObservedRib collect_scaled(std::size_t max_vantages = 4) const;

  /// Per-AS policies keyed by ASN for one plane (relaxation only in v6).
  std::unordered_map<Asn, prop::NodePolicy> policies(IpVersion af) const;

 private:
  friend class Generator;

  GenParams params_;
  AsGraph graph_;
  RelationshipMap rels_v4_;
  RelationshipMap rels_v6_;
  std::vector<HybridLink> hybrids_;
  std::vector<Asn> vantages_;
  std::vector<Asn> relaxed_;
  std::pair<Asn, Asn> dispute_{0, 0};
  Asn evangelist_ = 0;
  std::unordered_map<Asn, AsProfile> profiles_;
  prop::TeOverrides te_;
};

}  // namespace htor::gen
