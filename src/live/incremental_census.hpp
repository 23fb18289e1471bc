// Continuously maintained census state over a live::ObservedRib.
//
// Two tiers of answers, with an explicit accuracy contract between them:
//
//   * LIVE TIER — updated in O(route length) per applied message: distinct
//     AS-path counts, per-family link refcounts, dual-stack link count,
//     per-link community-vote tallies (exactly core's scan, applied with
//     sign), the community-inferred relationship of every voted link, and
//     the hybrid-link count derived from those relationships.  Vote state
//     keeps the full per-link histogram, so a withdrawn route's votes are
//     *retracted* — the tallies equal what a from-scratch scan of the
//     current routes would produce, which test_live pins.  What the live
//     tier does NOT include: Rosetta calibration (needs a global LocPrf
//     scan) and the valley necessity test (needs whole-graph BFS); live
//     valley counters classify each announced route against the live
//     relationship map at apply time and are monotonic telemetry, not the
//     paper's census.
//
//   * EPOCH TIER — recompute() materializes the RIB (canonical key order)
//     and runs core::run_census on it, full config.  This is byte-identical
//     to the batch pipeline on the same route set BY CONSTRUCTION — the
//     equivalence oracle the whole live subsystem hangs from — and is what
//     serve --follow publishes as a snapshot.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/census_report.hpp"
#include "core/pipeline.hpp"
#include "live/observed_rib.hpp"
#include "rpsl/community_dict.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/relationship.hpp"
#include "util/thread_pool.hpp"

namespace htor::live {

/// Live-tier counters, cheap to read at any point in the stream.
struct LiveStats {
  std::uint64_t routes = 0;
  std::uint64_t v4_paths = 0;  ///< distinct v4 AS paths (length >= 2)
  std::uint64_t v6_paths = 0;
  std::uint64_t v4_links = 0;  ///< links on >= 1 distinct v4 path
  std::uint64_t v6_links = 0;
  std::uint64_t dual_links = 0;
  std::uint64_t links_with_votes_v4 = 0;
  std::uint64_t links_with_votes_v6 = 0;
  std::uint64_t typed_links_v4 = 0;  ///< voted links with a clear majority
  std::uint64_t typed_links_v6 = 0;
  std::uint64_t conflicted_links_v4 = 0;
  std::uint64_t conflicted_links_v6 = 0;
  std::uint64_t hybrid_links = 0;  ///< dual, both typed, types differ
  std::uint64_t total_votes = 0;

  // Monotonic valley telemetry: each *announced* route classified once
  // against the live relationship map of its family at apply time.
  std::uint64_t valley_free_seen = 0;
  std::uint64_t valleys_seen = 0;
  std::uint64_t incomplete_seen = 0;
};

/// One published epoch: the authoritative batch-equivalent census.
struct EpochReport {
  core::CensusReport report;
  snapshot::Snapshot snap;
  std::uint64_t applied = 0;          ///< messages applied when cut
  std::uint32_t last_timestamp = 0;   ///< MRT timestamp of last applied record
  // Churn of the epoch just closed: the distinct ASes / prefixes / links
  // touched by applied updates since the previous cut (announce or
  // withdraw alike).
  std::uint64_t churn_ases = 0;
  std::uint64_t churn_prefixes = 0;
  std::uint64_t churn_links = 0;
};

class IncrementalCensus {
 public:
  /// Copies the dictionary and config; seeds the live state from `rib`
  /// exactly as if every route had been announced.  `source` labels the
  /// snapshots recompute() emits (typically the RIB file path).
  IncrementalCensus(const mrt::ObservedRib& rib, rpsl::CommunityDictionary dict,
                    core::InferenceConfig config, std::string source,
                    std::uint32_t seed_timestamp = 0);

  /// Apply one BGP4MP message (timestamp from its MRT header) and fold the
  /// route delta into every live structure.  Throws DecodeError on a
  /// malformed update with both the RIB and the live tier unchanged.
  void apply(std::uint32_t timestamp, const mrt::Bgp4mpMessage& msg);

  std::uint64_t applied() const { return applied_; }
  std::uint32_t last_timestamp() const { return last_timestamp_; }
  const LiveStats& stats() const { return stats_; }
  const ObservedRib& rib() const { return rib_; }

  /// Community-inferred relationship maps maintained by the live tier
  /// (no Rosetta).  For tests and staleness probes.
  const RelationshipMap& live_rels(IpVersion af) const {
    return af == IpVersion::V4 ? rels_v4_ : rels_v6_;
  }

  /// The authoritative epoch: run the full batch census over the
  /// materialized RIB on `pool`.  Byte-identical to core::run_census on
  /// mrt-level state; the snapshot is stamped with the last applied MRT
  /// timestamp (or the seed timestamp before any applies) so identical
  /// streams produce identical bytes.  Carries the churn counts since
  /// construction or the last reset_epoch_churn(); the caller decides when
  /// an epoch ends.
  EpochReport recompute(ThreadPool& pool) const;

  /// Start the next epoch's churn sets from empty.
  void reset_epoch_churn();

 private:
  struct LinkState {
    std::array<std::uint32_t, 4> votes_v4{};
    std::array<std::uint32_t, 4> votes_v6{};
    std::uint64_t paths_v4 = 0;  ///< distinct v4 paths crossing this link
    std::uint64_t paths_v6 = 0;
    Relationship rel_v4 = Relationship::Unknown;
    Relationship rel_v6 = Relationship::Unknown;
    bool conflicted_v4 = false;  ///< votes present but no clear majority
    bool conflicted_v6 = false;
    bool hybrid = false;

    bool has_votes() const;
    bool dead() const;
  };

  void add_route(const mrt::ObservedRoute& route);
  void remove_route(const mrt::ObservedRoute& route);
  void apply_votes(const mrt::ObservedRoute& route, int sign);
  void retally(const LinkKey& key, LinkState& state);
  void update_derived(const LinkKey& key, LinkState& state);
  void classify_route(const mrt::ObservedRoute& route);

  ObservedRib rib_;
  rpsl::CommunityDictionary dict_;
  core::InferenceConfig config_;
  std::string source_;

  std::unordered_map<std::vector<Asn>, std::uint64_t, AsnVectorHash> paths_v4_;
  std::unordered_map<std::vector<Asn>, std::uint64_t, AsnVectorHash> paths_v6_;
  std::unordered_map<LinkKey, LinkState, LinkKeyHash> links_;
  RelationshipMap rels_v4_;
  RelationshipMap rels_v6_;

  LiveStats stats_;
  std::uint64_t applied_ = 0;
  std::uint32_t seed_timestamp_ = 0;
  std::uint32_t last_timestamp_ = 0;

  // Entities touched by apply() since the last epoch cut (the seed RIB is
  // not churn).  O(churn) memory per epoch.
  std::unordered_set<Asn> churn_ases_;
  std::unordered_set<Prefix, PrefixHash> churn_prefixes_;
  std::unordered_set<LinkKey, LinkKeyHash> churn_links_;
};

}  // namespace htor::live
