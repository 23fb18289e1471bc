// Test reference: rebuild a snapshot::Snapshot from a validated v2 view.
//
// The library never decodes an image back into the struct — every read goes
// through the view.  The snapshot tests and fuzz_snapshot rebuild it here
// for one oracle: the format is canonical, so Writer::encode of the rebuilt
// struct must reproduce the image byte for byte, and a byte the validator
// let through without the view exposing it shows up as a mismatch.  The
// rows' presence flags rebuild the two maps; the hybrid table is copied
// verbatim, in census order.
#pragma once

#include "snapshot/layout.hpp"
#include "snapshot/snapshot.hpp"

namespace htor::snapshot {

inline Snapshot rebuild_snapshot(const V2View& v) {
  Snapshot snap;
  snap.header.timestamp = v.timestamp;
  snap.header.source = v.source();
  snap.dataset = v.dataset();
  snap.coverage_v4 = v.coverage(0);
  snap.coverage_v6 = v.coverage(1);
  snap.coverage_dual = v.coverage(2);
  snap.valleys_v4 = v.valleys(0);
  snap.valleys_v6 = v.valleys(1);
  snap.hybrid_counters = v.hybrid_counters();
  for (std::uint64_t i = 0; i < v.link_count; ++i) {
    const V2View::LinkRow row = v.link_at(i);
    if (row.in_v4) snap.rels_v4.set(row.first, row.second, row.rel_v4);
    if (row.in_v6) snap.rels_v6.set(row.first, row.second, row.rel_v6);
  }
  snap.hybrids.reserve(v.hybrid_count);
  for (std::uint64_t i = 0; i < v.hybrid_count; ++i) snap.hybrids.push_back(v.hybrid_at(i));
  return snap;
}

}  // namespace htor::snapshot
