// Relationship churn between two census snapshots: per address family, which
// links appeared, which vanished, which flipped relationship (e.g. p2p in
// one RIB, p2c in the next), and which dual-stack links became or stopped
// being hybrid.  This is the temporal measurement the paper motivates —
// hybrid relationships are interesting precisely because they form and
// resolve across successive collector RIBs.  It reads both snapshots as
// QueryIndex views, so diffing two files costs two validated opens and one
// linear pass.
#pragma once

#include <cstdint>
#include <vector>

#include "snapshot/query.hpp"

namespace htor::snapshot {

/// A link present in both snapshots whose relationship changed.
/// Relationships are oriented link.first -> link.second.
struct RelChange {
  LinkKey link;
  Relationship before = Relationship::Unknown;
  Relationship after = Relationship::Unknown;

  friend bool operator==(const RelChange&, const RelChange&) = default;
};

/// Churn within one address family.  All vectors are in canonical LinkKey
/// order, so the diff of two given snapshots is deterministic.
struct FamilyDiff {
  std::vector<LinkKey> appeared;  ///< in `b` but not `a`
  std::vector<LinkKey> vanished;  ///< in `a` but not `b`
  std::vector<RelChange> flips;   ///< in both, relationship differs
  std::uint64_t unchanged = 0;    ///< in both, relationship identical

  std::uint64_t churn() const {
    return appeared.size() + vanished.size() + flips.size();
  }

  friend bool operator==(const FamilyDiff&, const FamilyDiff&) = default;
};

struct Diff {
  FamilyDiff v4;
  FamilyDiff v6;
  std::vector<LinkKey> hybrids_formed;    ///< hybrid in `b` but not `a`
  std::vector<LinkKey> hybrids_resolved;  ///< hybrid in `a` but not `b`
  std::uint64_t hybrids_stable = 0;       ///< hybrid in both

  std::uint64_t total_churn() const {
    return v4.churn() + v6.churn() + hybrids_formed.size() + hybrids_resolved.size();
  }

  friend bool operator==(const Diff&, const Diff&) = default;
};

/// Full churn report from snapshot `a` to snapshot `b`: one merge-walk over
/// the two images' sorted link tables, read in place through the rows'
/// presence and hybrid flags — no map, sort or copy.  Hybrids compare as
/// sets of links: a hybrid table that lists a link twice counts it once.
Diff diff(const QueryIndex& a, const QueryIndex& b);

}  // namespace htor::snapshot
