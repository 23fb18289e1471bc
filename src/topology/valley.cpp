#include "topology/valley.hpp"

namespace htor {

ValleyCheckResult check_valley_free(std::span<const Asn> path, const RelationshipMap& rels) {
  ValleyCheckResult result;

  // States: 0 = climbing (c2p accepted), 1 = descending (p2c only).
  // A p2p or p2c link moves 0 -> 1; any c2p or second p2p in state 1 is a
  // valley.  Siblings never change state.  Prepending collapses: adjacent
  // duplicates are the same AS, and `hop` indexes the collapsed path.
  int state = 0;
  std::size_t hop = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] == path[i + 1]) continue;
    const Relationship r = rels.get(path[i], path[i + 1]);
    switch (r) {
      case Relationship::S2S:
        break;
      case Relationship::Unknown:
        ++result.unknown_links;
        break;
      case Relationship::C2P:
        if (state == 1 && result.cls == PathPolicyClass::ValleyFree) {
          result.cls = PathPolicyClass::Valley;
          result.first_violation = hop;
        }
        break;
      case Relationship::P2P:
        ++result.peer_links;
        if (state == 1 && result.cls == PathPolicyClass::ValleyFree) {
          result.cls = PathPolicyClass::Valley;
          result.first_violation = hop;
        }
        state = 1;
        break;
      case Relationship::P2C:
        state = 1;
        break;
    }
    ++hop;
  }
  if (result.cls == PathPolicyClass::ValleyFree && result.unknown_links > 0) {
    result.cls = PathPolicyClass::Incomplete;
  }
  return result;
}

bool is_valley_free(std::span<const Asn> path, const RelationshipMap& rels, bool strict) {
  const auto result = check_valley_free(path, rels);
  if (result.cls == PathPolicyClass::ValleyFree) return true;
  if (result.cls == PathPolicyClass::Incomplete) return !strict;
  return false;
}

}  // namespace htor
