// Deduplicating store of observed AS paths with occurrence counts.
//
// The paper's path-level statistics ("13% of the IPv6 paths…", ">28% of the
// IPv6 paths contain at least one hybrid link") are computed over the set of
// distinct AS paths extracted from the collector dumps; this container is
// that set.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "netbase/asn.hpp"
#include "topology/relationship.hpp"

namespace htor {

/// FNV-1a unordered_map functor.
struct AsnVectorHash {
  std::size_t operator()(const std::vector<Asn>& v) const {
    std::uint64_t h = 1469598103934665603ull;
    for (Asn a : v) {
      h ^= a;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

class PathStore {
 public:
  /// Record one occurrence of `path` (already de-prepended or not — stored
  /// verbatim).  Empty and single-AS paths are ignored.
  void add(const std::vector<Asn>& path);

  /// Fold another store's paths and occurrence counts into this one.
  void merge(const PathStore& other);

  /// Number of distinct paths.
  std::size_t unique_paths() const { return paths_.size(); }

  /// Total occurrences.
  std::uint64_t total_occurrences() const { return total_; }

  /// Visit every distinct path with its count.
  void for_each(const std::function<void(const std::vector<Asn>&, std::uint64_t)>& fn) const;

  /// Distinct links appearing in any stored path, in canonical (sorted)
  /// order — independent of insertion order, so sharded builds of the same
  /// path set enumerate links identically.
  std::vector<LinkKey> links() const;

  /// Number of distinct paths containing link (a, b) as adjacent ASes.
  /// Computed against an index built on first use.
  std::uint64_t paths_containing(Asn a, Asn b) const;

 private:
  void build_link_index() const;

  std::unordered_map<std::vector<Asn>, std::uint64_t, AsnVectorHash> paths_;
  std::uint64_t total_ = 0;

  mutable bool index_built_ = false;
  mutable std::unordered_map<LinkKey, std::uint64_t, LinkKeyHash> link_paths_;
};

}  // namespace htor
