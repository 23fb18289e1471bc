// End-to-end relationship inference: community dictionary application plus
// LocPrf Rosetta, per address family.
#pragma once

#include "core/community_inference.hpp"
#include "core/rosetta.hpp"
#include "mrt/rib_view.hpp"
#include "topology/path_store.hpp"
#include "util/thread_pool.hpp"

namespace htor::core {

struct InferenceConfig {
  CommunityInferenceParams community;
  RosettaParams rosetta;
  bool use_rosetta = true;
};

/// Load a collector RIB from `path` by streaming it (mrt::rib_from_stream):
/// record headers are scanned sequentially, bodies decode in fixed batches
/// on `pool`, and routes join straight into the ObservedRib, so peak memory
/// stays one batch deep.  Identical at any pool size.
mrt::ObservedRib load_rib(const std::string& path, ThreadPool& pool);

struct CoverageStats {
  std::size_t observed_links = 0;
  std::size_t covered_links = 0;
  double fraction() const {
    return observed_links == 0
               ? 0.0
               : static_cast<double>(covered_links) / static_cast<double>(observed_links);
  }
};

/// One link's community-vote total, summed over both families.
struct VotedLink {
  LinkKey link;
  std::uint64_t votes = 0;

  friend bool operator==(const VotedLink&, const VotedLink&) = default;
};

/// How many links InferredRelationships::top_voted_links keeps.
inline constexpr std::size_t kTopVotedLinks = 10;

struct InferredRelationships {
  /// Final relationship maps (communities + Rosetta), one per family.
  RelationshipMap v4;
  RelationshipMap v6;

  CommunityInferenceResult community_v4;
  CommunityInferenceResult community_v6;
  RosettaResult rosetta_v4;
  RosettaResult rosetta_v6;

  /// The kTopVotedLinks links with the most community votes, both families
  /// summed; votes descending, then link ascending.
  std::vector<VotedLink> top_voted_links;
};

/// Run the full inference over a collector RIB on `pool`.  Every pass over
/// the routes shards on the pool, both families at once: the community scan
/// (its votes reduce by link partition, each partition tallying and ranking
/// its own links), then Rosetta's learning and application passes.  The
/// pool's size decides the parallelism; every size gives the same result,
/// and ThreadPool(1) runs inline.
InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config, ThreadPool& pool);

/// Distinct AS paths of one family, as a PathStore.  The route shards stage
/// their paths by hash partition on `pool`, each partition builds its part
/// of the table as one pool task, and the parts join in partition order
/// (the same table for any pool size).
PathStore paths_of(const mrt::ObservedRib& rib, IpVersion af, ThreadPool& pool);

/// How many of `links` the map can type.
CoverageStats coverage(const std::vector<LinkKey>& links, const RelationshipMap& rels);

/// Links observed in both families: the v6 links (in their given order)
/// that also appear among the v4 links.  Both vectors must be sorted and
/// distinct, as PathStore::links() returns them.  A merge intersection,
/// sharded over the v6 links on `pool`; the output is the same for any pool
/// size.
std::vector<LinkKey> dual_stack_links(const std::vector<LinkKey>& v4_links,
                                      const std::vector<LinkKey>& v6_links, ThreadPool& pool);

}  // namespace htor::core
