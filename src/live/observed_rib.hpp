// An evolving collector RIB: the keyed, mutable counterpart of
// mrt::ObservedRib.  The batch pipeline's RIB is an append-only route vector
// built once from a TABLE_DUMP_V2 dump; live ingestion needs the opposite —
// a (family, prefix, vantage-peer) keyed table that BGP4MP UPDATEs announce
// into and withdraw from, one message at a time.
//
// Two invariants make this the foundation of the continuous census:
//
//   1. Strong exception safety per message.  apply() validates the whole
//      message before touching the table; a malformed update (announced
//      prefixes with no AS_PATH, family mismatch between prefix and field)
//      throws DecodeError and leaves the RIB exactly as it was.  The fuzz
//      harness holds this as its oracle.
//
//   2. Canonical materialization.  materialize() walks the table in key
//      order — (family, prefix, peer), all totally ordered — so two RIBs
//      holding the same route set produce byte-identical mrt::ObservedRibs
//      no matter what sequence of applies built them.  This is what lets a
//      live epoch's census be compared byte-for-byte against
//      core::run_census over the "same" RIB.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <vector>

#include "mrt/record.hpp"
#include "mrt/rib_view.hpp"

namespace htor::live {

/// Identity of one route slot: the collector holds at most one path per
/// (family, prefix, vantage peer), exactly like a real BGP Adj-RIB-In.
struct RouteKey {
  IpVersion af = IpVersion::V4;
  Prefix prefix;
  Asn peer = 0;

  friend bool operator==(const RouteKey&, const RouteKey&) = default;
  friend auto operator<=>(const RouteKey&, const RouteKey&) = default;
};

/// What one apply() did, expressed as route-level deltas: the routes that
/// left the table and the routes that entered it.  A replaced route appears
/// in both lists (old value in `removed`, new value in `added`).
struct ApplyDelta {
  std::vector<mrt::ObservedRoute> added;
  std::vector<mrt::ObservedRoute> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

/// Statistics over everything applied so far (monotonic).
struct ApplyStats {
  std::uint64_t messages = 0;          ///< UPDATE messages applied
  std::uint64_t non_updates = 0;       ///< OPEN/KEEPALIVE/NOTIFICATION no-ops
  std::uint64_t announced = 0;         ///< routes newly installed
  std::uint64_t replaced = 0;          ///< routes overwritten by re-announce
  std::uint64_t duplicates = 0;        ///< re-announces identical to stored
  std::uint64_t withdrawn = 0;         ///< routes removed
  std::uint64_t withdrawn_missing = 0; ///< withdraws for routes never held
};

class ObservedRib {
 public:
  /// Install every route of a batch-loaded RIB, last-wins per key (matching
  /// how a real table would converge after replaying the dump in order).
  void seed(const mrt::ObservedRib& rib);

  /// Apply one BGP4MP message.  UPDATEs install/replace announced routes and
  /// erase withdrawn ones; OPEN/KEEPALIVE/NOTIFICATION are counted no-ops.
  /// Validates before mutating: on DecodeError the RIB is untouched.
  ApplyDelta apply(const mrt::Bgp4mpMessage& msg);

  std::size_t size() const { return routes_.size(); }
  std::size_t size_of(IpVersion af) const {
    return af == IpVersion::V4 ? v4_count_ : v6_count_;
  }
  const ApplyStats& stats() const { return stats_; }

  /// The current table as a batch-pipeline RIB, routes in canonical
  /// (family, prefix, peer) order — identical for any apply history that
  /// reaches the same route set.
  mrt::ObservedRib materialize() const;

 private:
  void insert(mrt::ObservedRoute route, ApplyDelta& delta);
  void erase(const RouteKey& key, ApplyDelta& delta);

  std::map<RouteKey, mrt::ObservedRoute> routes_;
  std::size_t v4_count_ = 0;
  std::size_t v6_count_ = 0;
  ApplyStats stats_;
};

}  // namespace htor::live
