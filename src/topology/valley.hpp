// Valley-free rule (Gao 2001) over relationship-annotated AS paths.
//
// A path is valley-free when, read from either end, its link relationships
// match  c2p* (p2p)? p2c*  — i.e. it climbs customer-to-provider links, may
// cross at most one peering link at the top, and then descends
// provider-to-customer links.  Sibling links are transparent.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "netbase/asn.hpp"
#include "topology/relationship.hpp"

namespace htor {

enum class PathPolicyClass : std::uint8_t {
  ValleyFree,   ///< conforms to the valley-free rule
  Valley,       ///< violates the rule ("valley path" in the paper)
  Incomplete,   ///< at least one link has Relationship::Unknown
};

struct ValleyCheckResult {
  PathPolicyClass cls = PathPolicyClass::ValleyFree;
  /// Index i of the first offending link (p[i], p[i+1]) for Valley paths.
  std::optional<std::size_t> first_violation;
  /// Number of peering links crossed.
  std::size_t peer_links = 0;
  /// Number of links with Unknown relationship.
  std::size_t unknown_links = 0;
};

/// Classify `path` under `rels` (adjacent duplicate ASNs — prepending —
/// are ignored).
ValleyCheckResult check_valley_free(std::span<const Asn> path, const RelationshipMap& rels);

/// True when the check yields ValleyFree (Incomplete counts as not
/// valley-free only if `strict`).
bool is_valley_free(std::span<const Asn> path, const RelationshipMap& rels,
                    bool strict = false);

}  // namespace htor
