#include "snapshot/snapshot.hpp"

#include <algorithm>

namespace htor::snapshot {

std::vector<std::pair<LinkKey, Relationship>> sorted_entries(const RelationshipMap& map) {
  std::vector<std::pair<LinkKey, Relationship>> out;
  out.reserve(map.size());
  map.for_each([&](const LinkKey& key, Relationship rel) { out.emplace_back(key, rel); });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace htor::snapshot
