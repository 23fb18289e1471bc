// Valley-path census (paper §3, ¶4): how many observed IPv6 paths violate
// the valley-free rule, and how many of those violations are *necessary* —
// i.e. no strict valley-free path between the vantage and the origin exists
// at all, so the valley is the price of reachability.
#pragma once

#include <cstdint>

#include "topology/path_store.hpp"
#include "topology/relationship.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

struct ValleyCensus {
  std::uint64_t paths = 0;
  std::uint64_t valley_free = 0;
  std::uint64_t valley = 0;
  std::uint64_t incomplete = 0;  ///< paths with unknown-relationship links

  std::uint64_t classified_valleys = 0;  ///< valleys testable for necessity
  std::uint64_t necessary_valleys = 0;   ///< no valley-free alternative exists

  double valley_fraction() const {
    return paths == 0 ? 0.0 : static_cast<double>(valley) / static_cast<double>(paths);
  }
  double necessary_fraction() const {
    return classified_valleys == 0 ? 0.0
                                   : static_cast<double>(necessary_valleys) /
                                         static_cast<double>(classified_valleys);
  }
};

/// Classify every distinct path in `paths` under `rels`.  The necessity test
/// runs valley-free reachability over the link set of `rels` itself (the
/// best topology knowledge available to the measurement, as in the paper).
/// Path classification shards on `pool`, and the valley-free BFS runs one
/// pool task per distinct vantage source.  Counters are additive, so the
/// result is the same for any pool size.
ValleyCensus census_valleys(const PathStore& paths, const RelationshipMap& rels,
                            ThreadPool& pool);

/// True when no strict valley-free path connects src and dst in `rels`.
bool valley_is_necessary(Asn src, Asn dst, const RelationshipMap& rels);

}  // namespace htor::core
