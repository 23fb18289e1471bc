// Mining BGP community documentation out of IRR aut-num objects.
//
// Operators document their community schemes in free-text "remarks:" lines:
//
//   remarks:    64500:100   routes learned from customers
//   remarks:    64500:200   routes learned from peers
//   remarks:    64500:300   routes learned from upstream providers
//   remarks:    64500:9040  set local-pref to 40 (backup)
//   remarks:    64500:7001  prepend once towards all peers
//
// The miner turns those lines into a dictionary mapping a community value to
// a machine-readable meaning.  Two classes of meanings matter to the paper:
// relationship ingress tags ("this route was learned from a customer") and
// traffic-engineering tags (which both explain unusual LocPrf values and must
// be filtered before LocPrf can be trusted as a relationship signal).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/community.hpp"
#include "rpsl/object.hpp"
#include "topology/relationship.hpp"

namespace htor::rpsl {

enum class CommunityTagKind : std::uint8_t {
  FromCustomer,  ///< ingress tag: route learned from a customer
  FromPeer,      ///< ingress tag: route learned from a peer
  FromProvider,  ///< ingress tag: route learned from an upstream/transit
  FromSibling,   ///< ingress tag: route learned from a sibling AS
  SetLocPref,    ///< TE action: overrides local-pref (value in `locpref`)
  Prepend,       ///< TE action: path prepending request
  NoExportTo,    ///< TE action: selective no-export
  Blackhole,     ///< TE action: RTBH
  GeoTag,        ///< informational: ingress city/region/PoP
  Other,         ///< documented but uninterpretable
};

const char* to_string(CommunityTagKind kind);

/// True for the four relationship ingress tags.
bool is_relationship_tag(CommunityTagKind kind);

/// True for tags that manipulate route preference and therefore disqualify
/// a route's LocPrf from relationship calibration.
bool is_te_tag(CommunityTagKind kind);

/// The relationship asserted by an ingress tag: the tagging AS's view of the
/// neighbor the route came from.  FromCustomer -> P2C (neighbor is customer).
Relationship relationship_of(CommunityTagKind kind);

struct CommunityMeaning {
  CommunityTagKind kind = CommunityTagKind::Other;
  std::uint32_t locpref = 0;  ///< for SetLocPref

  friend bool operator==(const CommunityMeaning&, const CommunityMeaning&) = default;
};

struct CommunityHash {
  std::size_t operator()(bgp::Community c) const { return std::hash<std::uint32_t>()(c.raw()); }
};

class CommunityDictionary {
 public:
  /// Register a meaning.  The first registration wins; a later conflicting
  /// one is dropped and counted (operators occasionally re-use values).
  void add(bgp::Community community, CommunityMeaning meaning);

  const CommunityMeaning* lookup(bgp::Community community) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t conflicts() const { return conflicts_; }

  /// ASNs that documented at least one relationship ingress tag.
  const std::unordered_set<std::uint16_t>& documented_asns() const { return documented_asns_; }

  /// Count of entries per tag kind.
  std::unordered_map<CommunityTagKind, std::size_t> kind_histogram() const;

 private:
  std::unordered_map<bgp::Community, CommunityMeaning, CommunityHash> entries_;
  std::unordered_set<std::uint16_t> documented_asns_;
  std::size_t conflicts_ = 0;
};

/// Interpret one documentation line ("64500:100  routes from customers").
/// Returns false when the line does not start with a community token.
bool interpret_remark_line(std::string_view line, bgp::Community& community,
                           CommunityMeaning& meaning);

/// Mine every aut-num object's remarks into a dictionary.
CommunityDictionary mine_dictionary(const std::vector<RpslObject>& objects);

/// Mine the IRR dump in the file at `path`.  Throws Error naming the path
/// when the file cannot be read: missing, a directory, or a read error.
CommunityDictionary load_dictionary(const std::string& path);

}  // namespace htor::rpsl
