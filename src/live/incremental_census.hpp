// The continuous census: a live::ObservedRib kept current by BGP4MP
// updates, and the epochs cut from it.
//
// apply() folds one message into the keyed RIB's overlay and records which
// ASes, prefixes and links it touched.  recompute() merges the overlay into
// the RIB's key-sorted table and runs core::run_census on that table in
// place, full config — byte-identical to the batch pipeline on the same
// route set BY CONSTRUCTION, and with no copy of the RIB per epoch.  That is
// the equivalence oracle the live subsystem hangs from, and the epoch is
// what serve --follow publishes as a snapshot.  Every census number the
// live path reports comes from an epoch.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "core/census_report.hpp"
#include "core/pipeline.hpp"
#include "live/observed_rib.hpp"
#include "rpsl/community_dict.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/relationship.hpp"
#include "util/thread_pool.hpp"

namespace htor::live {

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
  /// Seeds the live RIB from `rib` (last-wins per key; pass an rvalue and
  /// its routes become the table without a copy).  `source` labels the
  /// snapshots recompute() emits (typically the RIB file path).
  IncrementalCensus(mrt::ObservedRib rib, rpsl::CommunityDictionary dict,
                    core::InferenceConfig config, std::string source,
                    std::uint32_t seed_timestamp = 0);

  /// Apply one BGP4MP message (timestamp from its MRT header) to the RIB and
  /// the epoch's churn sets.  Throws DecodeError on a malformed update with
  /// the census unchanged.
  void apply(std::uint32_t timestamp, const mrt::Bgp4mpMessage& msg);

  std::uint64_t applied() const { return applied_; }
  std::uint32_t last_timestamp() const { return last_timestamp_; }
  const ObservedRib& rib() const { return rib_; }

  /// The authoritative epoch: fold the updates applied since the last
  /// epoch into the RIB's table, then run the full batch census over that
  /// table on `pool`.  Byte-identical to core::run_census on mrt-level
  /// state; the snapshot is stamped with the last applied MRT
  /// timestamp (or the seed timestamp before any applies) so identical
  /// streams produce identical bytes.  Carries the churn counts since
  /// construction or the last reset_epoch_churn(); the caller decides when
  /// an epoch ends.
  EpochReport recompute(ThreadPool& pool);

  /// Start the next epoch's churn sets from empty.
  void reset_epoch_churn();

 private:
  ObservedRib rib_;
  rpsl::CommunityDictionary dict_;
  core::InferenceConfig config_;
  std::string source_;

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
