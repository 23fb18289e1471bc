// Tests for the snapshot store: lossless deterministic round-trips, the MRT
// readers' fail-clean discipline in validate_v2 (truncation at any byte,
// wrong magic, other versions, out-of-range values never yield a view), the
// diff engine, and the query index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "core/census_report.hpp"
#include "core/hybrid.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "rpsl/object.hpp"
#include "snapshot/diff.hpp"
#include "snapshot/layout.hpp"
#include "snapshot/query.hpp"
#include "snapshot/writer.hpp"
#include "snapshot_rebuild.hpp"
#include "util/bytes.hpp"

namespace htor::snapshot {
namespace {

/// A real snapshot: the full census of a generated Internet.
const Snapshot& census_snapshot() {
  static const Snapshot snap = [] {
    const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
    const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
    ThreadPool pool;
    const auto report = core::run_census(net.collect(), dict, {}, pool);
    return core::to_snapshot(report, "census/rib.mrt", 1281052800u);
  }();
  return snap;
}

/// A tiny handcrafted snapshot whose byte layout the format tests pin down.
Snapshot tiny_snapshot() {
  Snapshot snap;
  snap.header.timestamp = 1700000000u;
  snap.header.source = "tiny.mrt";  // 8 bytes — the offsets below assume this
  snap.dataset = {10, 8, 5, 4, 3};
  snap.coverage_v4 = {5, 4};
  snap.coverage_v6 = {4, 3};
  snap.coverage_dual = {3, 2};
  snap.valleys_v4 = {8, 6, 1, 1, 1, 1};
  snap.valleys_v6 = {6, 4, 2, 0, 2, 1};
  snap.hybrid_counters = {3, 2, 8, 4};
  snap.rels_v4.set(1, 2, Relationship::P2C);
  snap.rels_v4.set(2, 3, Relationship::P2P);
  snap.rels_v6.set(1, 2, Relationship::P2P);
  snap.rels_v6.set(2, 3, Relationship::P2P);
  snap.hybrids.push_back({LinkKey(1, 2), Relationship::P2C, Relationship::P2P,
                          static_cast<std::uint8_t>(core::HybridClass::TransitV4PeerV6), 5});
  return snap;
}

// Format-v2 offsets into the tiny snapshot (3 ASes, 2 links, 1 hybrid,
// 8-byte source): 312-byte header, ASN table @312 (3 x u32), pad, adjacency
// index @328 (4 x u64: 0,1,3,4), adjacency entries @360 (4 x 8), link rows
// @392 (2 x 12), hybrid row @416 (1 x 20), pad, source @440, trailer @448.
// kTinyV2Size pins the mmap-able layout; a failure here means the layout
// changed and kFormatVersion must be bumped again.
constexpr std::size_t kTinyV2LinkCountOffset = 32;   ///< u64 in the header
constexpr std::size_t kTinyV2FirstLinkOffset = 392;  ///< row 0: (1,2)
constexpr std::size_t kTinyV2FirstRelOffset = 400;   ///< row 0 rel_v4 byte
constexpr std::size_t kTinyV2FlagsOffset = 402;      ///< row 0 flags byte
constexpr std::size_t kTinyV2SecondLinkOffset = 404; ///< row 1: (2,3)
constexpr std::size_t kTinyV2HybridClsOffset = 426;  ///< hybrid row class byte
constexpr std::size_t kTinyV2Size = 452;

/// Every link of `snap`'s two maps and hybrid list answers through `index`
/// as recorded, and the index holds no link the snapshot lacks.
void expect_index_matches(const QueryIndex& index, const Snapshot& snap) {
  std::set<LinkKey> links;
  for (const auto& [link, rel] : sorted_entries(snap.rels_v4)) {
    links.insert(link);
    const auto info = index.lookup(link.first, link.second);
    ASSERT_TRUE(info.has_value()) << link.first << "-" << link.second;
    EXPECT_EQ(info->rel_v4, rel);
  }
  for (const auto& [link, rel] : sorted_entries(snap.rels_v6)) {
    links.insert(link);
    const auto info = index.lookup(link.first, link.second);
    ASSERT_TRUE(info.has_value()) << link.first << "-" << link.second;
    EXPECT_EQ(info->rel_v6, rel);
  }
  std::set<LinkKey> hybrids;
  for (const auto& h : snap.hybrids) {
    links.insert(h.link);
    hybrids.insert(h.link);
    const auto info = index.lookup(h.link.first, h.link.second);
    ASSERT_TRUE(info.has_value()) << h.link.first << "-" << h.link.second;
    EXPECT_TRUE(info->hybrid);
  }
  EXPECT_EQ(index.link_count(), links.size());
  EXPECT_EQ(index.hybrid_count(), hybrids.size());
  EXPECT_EQ(index.hybrid_entry_count(), snap.hybrids.size());
  EXPECT_EQ(index.source(), snap.header.source);
  EXPECT_EQ(index.timestamp(), snap.header.timestamp);
}

TEST(SnapshotRoundTrip, TinyLossless) {
  const Snapshot original = tiny_snapshot();
  const auto bytes = Writer::encode(original);
  EXPECT_EQ(bytes.size(), kTinyV2Size);

  const Snapshot rebuilt = rebuild_snapshot(validate_v2(bytes));
  EXPECT_EQ(rebuilt.header, original.header);
  EXPECT_EQ(rebuilt.rels_v4.get(1, 2), Relationship::P2C);
  EXPECT_EQ(rebuilt.rels_v4.get(2, 1), Relationship::C2P);
  ASSERT_EQ(rebuilt.hybrids.size(), 1u);
  EXPECT_EQ(rebuilt.hybrids[0].v6_path_visibility, 5u);
  // Re-encoding what the view exposes reproduces the bytes exactly.
  EXPECT_EQ(Writer::encode(rebuilt), bytes);

  expect_index_matches(QueryIndex(original), original);
}

TEST(SnapshotRoundTrip, CensusLossless) {
  const Snapshot& original = census_snapshot();
  ASSERT_GT(original.rels_v4.size(), 0u);
  ASSERT_GT(original.rels_v6.size(), 0u);
  ASSERT_GT(original.hybrids.size(), 0u);

  const auto bytes = Writer::encode(original);
  const Snapshot rebuilt = rebuild_snapshot(validate_v2(bytes));
  EXPECT_EQ(rebuilt.header, original.header);
  EXPECT_EQ(rebuilt.dataset, original.dataset);
  EXPECT_EQ(rebuilt.coverage_dual, original.coverage_dual);
  EXPECT_EQ(rebuilt.valleys_v6, original.valleys_v6);
  EXPECT_EQ(rebuilt.hybrid_counters, original.hybrid_counters);
  EXPECT_EQ(rebuilt.hybrids, original.hybrids);
  EXPECT_EQ(Writer::encode(rebuilt), bytes);

  const QueryIndex index(original);
  expect_index_matches(index, original);
  EXPECT_EQ(index.dataset(), original.dataset);
  EXPECT_EQ(index.hybrid_counters(), original.hybrid_counters);
}

// The canonical encoding is independent of map insertion order and of the
// census thread count: the same measurement always yields the same bytes.
TEST(SnapshotRoundTrip, EncodingIsCanonical) {
  Snapshot a = tiny_snapshot();
  Snapshot b;
  b.header = a.header;
  b.dataset = a.dataset;
  b.coverage_v4 = a.coverage_v4;
  b.coverage_v6 = a.coverage_v6;
  b.coverage_dual = a.coverage_dual;
  b.valleys_v4 = a.valleys_v4;
  b.valleys_v6 = a.valleys_v6;
  b.hybrid_counters = a.hybrid_counters;
  // Reverse insertion order and orientation; the canonical form is the same.
  b.rels_v4.set(3, 2, Relationship::P2P);
  b.rels_v4.set(2, 1, Relationship::C2P);
  b.rels_v6.set(3, 2, Relationship::P2P);
  b.rels_v6.set(2, 1, Relationship::P2P);
  b.hybrids = a.hybrids;
  EXPECT_EQ(Writer::encode(a), Writer::encode(b));
}

TEST(SnapshotRoundTrip, CensusJobsDeterministic) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
  const auto rib = net.collect();
  const auto dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
  std::vector<std::uint8_t> reference;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    const auto report = core::run_census(rib, dict, {}, pool);
    const auto bytes = Writer::encode(core::to_snapshot(report, "census/rib.mrt", 1281052800u));
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "snapshot differs at jobs=" << jobs;
    }
  }
}

TEST(SnapshotFile, RoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/roundtrip.snap";
  Writer::write_file(census_snapshot(), path);
  EXPECT_EQ(load_bytes(path), Writer::encode(census_snapshot()));
  expect_index_matches(QueryIndex::open(path), census_snapshot());
  std::remove(path.c_str());

  EXPECT_THROW(QueryIndex::open("/nonexistent/nope.snap"), Error);
  EXPECT_THROW(Writer::write_file(census_snapshot(), "/nonexistent/dir/out.snap"), Error);
}

// The acceptance criterion verbatim: EVERY truncated prefix of a valid
// snapshot fails with DecodeError — no byte boundary yields a partial
// snapshot.
TEST(SnapshotRobustness, TruncationSweepEveryByte) {
  const auto bytes = Writer::encode(tiny_snapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> cut(bytes.data(), len);
    EXPECT_THROW(validate_v2(cut), DecodeError) << "cut at " << len;
  }
}

// Same sweep, strided, over the much larger census snapshot (its map regions
// exercise the count-vs-remaining bound and mid-entry cuts at scale).
TEST(SnapshotRobustness, TruncationSweepCensusStrided) {
  const auto bytes = Writer::encode(census_snapshot());
  for (std::size_t len = 0; len < bytes.size(); len += (len < 512 ? 7 : 487)) {
    const std::span<const std::uint8_t> cut(bytes.data(), len);
    EXPECT_THROW(validate_v2(cut), DecodeError) << "cut at " << len;
  }
}

TEST(SnapshotRobustness, WrongMagicIsReasoned) {
  auto bytes = Writer::encode(tiny_snapshot());
  bytes[0] ^= 0xff;
  try {
    validate_v2(bytes);
    FAIL() << "validate_v2 accepted a bad magic";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(SnapshotRobustness, FutureVersionIsReasoned) {
  auto bytes = Writer::encode(tiny_snapshot());
  // Version field is bytes 4..7 big-endian; declare a future major version.
  bytes[4] = 0;
  bytes[5] = 0;
  bytes[6] = 0;
  bytes[7] = static_cast<std::uint8_t>(kFormatVersion + 1);
  try {
    validate_v2(bytes);
    FAIL() << "validate_v2 accepted a future format version";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
  // Version 0 is equally invalid.
  bytes[7] = 0;
  EXPECT_THROW(validate_v2(bytes), DecodeError);
}

// Format v1 is retired.  Every entry point — validate_v2 and both
// QueryIndex opens — rejects a v1 image with a reason that names the
// command which regenerates the snapshot in the current format.
TEST(SnapshotRobustness, RetiredV1NamesTheRegenerateCommand) {
  auto bytes = Writer::encode(tiny_snapshot());
  ASSERT_EQ(bytes[7], 2);
  bytes[7] = 1;  // version field, bytes 4..7 big-endian
  const std::string path = ::testing::TempDir() + "/retired_v1.snap";
  save_bytes(path, bytes);

  const auto expect_hint = [](const std::function<void()>& open, const char* what) {
    try {
      open();
      ADD_FAILURE() << what << " accepted a v1 image";
    } catch (const DecodeError& e) {
      EXPECT_NE(std::string(e.what()).find("census --snapshot-out"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_hint([&] { validate_v2(bytes); }, "validate_v2");
  // A v1 file shorter than a v2 header is rejected for its version too.
  expect_hint([&] { validate_v2(std::span<const std::uint8_t>(bytes.data(), 64)); },
              "validate_v2 (short)");
  expect_hint([&] { QueryIndex::open(path); }, "QueryIndex::open");
  expect_hint([&] { QueryIndex::open_mapped(path); }, "QueryIndex::open_mapped");
  std::remove(path.c_str());
}

TEST(SnapshotRobustness, TrailingGarbageThrows) {
  auto bytes = Writer::encode(tiny_snapshot());
  bytes.push_back(0x00);
  EXPECT_THROW(validate_v2(bytes), DecodeError);
}

TEST(SnapshotRobustness, OutOfRangeRelationshipThrows) {
  auto v2 = Writer::encode(tiny_snapshot());
  ASSERT_EQ(v2[kTinyV2FirstRelOffset], static_cast<std::uint8_t>(Relationship::P2C));
  v2[kTinyV2FirstRelOffset] = 9;
  EXPECT_THROW(validate_v2(v2), DecodeError);
}

TEST(SnapshotRobustness, OutOfRangeHybridClassThrows) {
  auto v2 = Writer::encode(tiny_snapshot());
  ASSERT_EQ(v2[kTinyV2HybridClsOffset],
            static_cast<std::uint8_t>(core::HybridClass::TransitV4PeerV6));
  v2[kTinyV2HybridClsOffset] = 7;
  EXPECT_THROW(validate_v2(v2), DecodeError);
}

TEST(SnapshotRobustness, NonCanonicalPairThrows) {
  // Rewrite the first link row from (1,2) to (2,1).
  const std::uint8_t swapped[8] = {0, 0, 0, 2, 0, 0, 0, 1};
  auto v2 = Writer::encode(tiny_snapshot());
  std::copy(std::begin(swapped), std::end(swapped),
            v2.begin() + static_cast<long>(kTinyV2FirstLinkOffset));
  EXPECT_THROW(validate_v2(v2), DecodeError);
}

TEST(SnapshotRobustness, OutOfOrderEntriesThrow) {
  // Rewrite the second link row from (2,3) to (1,2): duplicates the first
  // row, breaking the strictly-ascending canonical order.
  const std::uint8_t duplicate[8] = {0, 0, 0, 1, 0, 0, 0, 2};
  auto v2 = Writer::encode(tiny_snapshot());
  std::copy(std::begin(duplicate), std::end(duplicate),
            v2.begin() + static_cast<long>(kTinyV2SecondLinkOffset));
  EXPECT_THROW(validate_v2(v2), DecodeError);
}

// A garbage count field must fail against the bytes actually present, before
// any allocation proportional to the claimed count.
TEST(SnapshotRobustness, CountOverrunFailsFast) {
  auto v2 = Writer::encode(tiny_snapshot());
  for (std::size_t i = 0; i < 8; ++i) v2[kTinyV2LinkCountOffset + i] = 0xff;
  try {
    validate_v2(v2);
    FAIL() << "validate_v2 accepted an absurd v2 link count";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos) << e.what();
  }
}

// The v2-only failure modes: every structural invariant of the flat layout
// is checked before any view escapes, each with its own reasoned message.
TEST(SnapshotRobustness, V2StructuralCorruptionIsReasoned) {
  const auto pristine = Writer::encode(tiny_snapshot());
  const auto expect_reason = [&](std::vector<std::uint8_t> bytes, const char* needle) {
    try {
      validate_v2(bytes);
      FAIL() << "validate_v2 accepted a corrupt v2 image (wanted: " << needle << ")";
    } catch (const DecodeError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };

  // Declared file size disagrees with the actual byte count.
  auto size_lie = pristine;
  size_lie[23] ^= 0x01;  // low byte of the u64 size field at offset 16
  expect_reason(std::move(size_lie), "does not match the file");

  // A section offset that disagrees with the recomputed layout.
  auto bad_offset = pristine;
  bad_offset[48 + 7] ^= 0x08;  // first section offset (ASN table)
  expect_reason(std::move(bad_offset), "section offset corrupt");

  // Reserved flag bits on a link row.
  auto bad_flags = pristine;
  bad_flags[kTinyV2FlagsOffset] |= 0x80;
  expect_reason(std::move(bad_flags), "reserved bits");

  // A link row whose flags clear both families and the hybrid bit.
  auto orphan_row = pristine;
  orphan_row[kTinyV2FlagsOffset] = 0;
  expect_reason(std::move(orphan_row), "no family");

  // Non-zero padding between sections.
  auto dirty_pad = pristine;
  dirty_pad[324] = 0xcc;  // the 4 pad bytes after the 3-entry ASN table
  expect_reason(std::move(dirty_pad), "padding");

  // AS table out of ascending order.
  auto unsorted_asn = pristine;
  unsorted_asn[315] = 9;  // first ASN 1 -> 9, no longer < 2
  expect_reason(std::move(unsorted_asn), "AS table out of canonical order");

  // A trailing byte breaks the declared size before anything else.
  auto trailing = pristine;
  trailing.push_back(0x00);
  expect_reason(std::move(trailing), "does not match the file");
}

TEST(SnapshotWriter, RejectsUnencodableSnapshots) {
  Snapshot self_link = tiny_snapshot();
  self_link.rels_v4.set(5, 5, Relationship::P2P);  // LinkKey(5,5): first == second
  EXPECT_THROW(Writer::encode(self_link), InvalidArgument);

  Snapshot long_source = tiny_snapshot();
  long_source.header.source.assign(70000, 'x');
  EXPECT_THROW(Writer::encode(long_source), InvalidArgument);
}

// ---------------------------------------------------------------- diff

/// Snapshot holding only the given per-family maps.
Snapshot maps_only(RelationshipMap v4, RelationshipMap v6 = {}) {
  Snapshot snap;
  snap.rels_v4 = std::move(v4);
  snap.rels_v6 = std::move(v6);
  return snap;
}

TEST(SnapshotDiff, SelfDiffIsZeroChurn) {
  const Snapshot& snap = census_snapshot();
  const QueryIndex index(snap);
  const Diff self = diff(index, index);
  EXPECT_EQ(self.total_churn(), 0u);
  EXPECT_EQ(self.v4.unchanged, snap.rels_v4.size());
  EXPECT_EQ(self.v6.unchanged, snap.rels_v6.size());
  EXPECT_EQ(self.hybrids_stable, snap.hybrids.size());
  EXPECT_TRUE(self.v4.appeared.empty());
  EXPECT_TRUE(self.v4.vanished.empty());
  EXPECT_TRUE(self.v4.flips.empty());
}

TEST(SnapshotDiff, ReportsChurnBuckets) {
  RelationshipMap a;
  a.set(1, 2, Relationship::P2C);   // will flip to P2P
  a.set(2, 3, Relationship::P2P);   // unchanged
  a.set(3, 4, Relationship::C2P);   // vanishes
  RelationshipMap b;
  b.set(1, 2, Relationship::P2P);
  b.set(2, 3, Relationship::P2P);
  b.set(4, 5, Relationship::S2S);   // appears

  const FamilyDiff fam =
      diff(QueryIndex(maps_only(std::move(a))), QueryIndex(maps_only(std::move(b)))).v4;
  EXPECT_EQ(fam.appeared, (std::vector<LinkKey>{LinkKey(4, 5)}));
  EXPECT_EQ(fam.vanished, (std::vector<LinkKey>{LinkKey(3, 4)}));
  ASSERT_EQ(fam.flips.size(), 1u);
  EXPECT_EQ(fam.flips[0],
            (RelChange{LinkKey(1, 2), Relationship::P2C, Relationship::P2P}));
  EXPECT_EQ(fam.unchanged, 1u);
  EXPECT_EQ(fam.churn(), 3u);
}

// A link row present on both sides but for different families: each family
// files it on its own, so v4 loses the link while v6 gains it.
TEST(SnapshotDiff, FamiliesChurnIndependentlyOnOneLink) {
  RelationshipMap a_v4;
  a_v4.set(1, 2, Relationship::P2C);
  RelationshipMap b_v6;
  b_v6.set(2, 1, Relationship::C2P);  // stored as (1,2) P2C
  const Diff d = diff(QueryIndex(maps_only(std::move(a_v4))),
                      QueryIndex(maps_only({}, std::move(b_v6))));
  EXPECT_EQ(d.v4.vanished, (std::vector<LinkKey>{LinkKey(1, 2)}));
  EXPECT_TRUE(d.v4.appeared.empty());
  EXPECT_EQ(d.v6.appeared, (std::vector<LinkKey>{LinkKey(1, 2)}));
  EXPECT_TRUE(d.v6.vanished.empty());
  EXPECT_EQ(d.total_churn(), 2u);
}

TEST(SnapshotDiff, TracksHybridFormationAndResolution) {
  Snapshot a = tiny_snapshot();  // hybrid on (1,2)
  Snapshot b = tiny_snapshot();
  b.hybrids.clear();
  b.hybrids.push_back({LinkKey(2, 3), Relationship::P2P, Relationship::P2C,
                       static_cast<std::uint8_t>(core::HybridClass::PeerV4TransitV6), 3});

  const Diff d = diff(QueryIndex(a), QueryIndex(b));
  EXPECT_EQ(d.hybrids_formed, (std::vector<LinkKey>{LinkKey(2, 3)}));
  EXPECT_EQ(d.hybrids_resolved, (std::vector<LinkKey>{LinkKey(1, 2)}));
  EXPECT_EQ(d.hybrids_stable, 0u);
  EXPECT_EQ(d.v4.churn(), 0u);
  EXPECT_EQ(d.v6.churn(), 0u);
  EXPECT_EQ(d.total_churn(), 2u);
}

// The hybrid table may list one link more than once (it is stored verbatim),
// but the diff compares hybrid links as sets: a repeated entry is one link.
TEST(SnapshotDiff, RepeatedHybridEntriesDiffAsASet) {
  Snapshot twice = tiny_snapshot();  // hybrid on (1,2)...
  twice.hybrids.push_back(twice.hybrids.front());  // ...listed twice
  Snapshot none = tiny_snapshot();
  none.hybrids.clear();
  const QueryIndex a(twice);
  ASSERT_EQ(a.hybrid_entry_count(), 2u);
  ASSERT_EQ(a.hybrid_count(), 1u);

  const Diff self = diff(a, a);
  EXPECT_EQ(self.hybrids_stable, 1u);
  EXPECT_EQ(self.total_churn(), 0u);

  const Diff once = diff(a, QueryIndex(tiny_snapshot()));
  EXPECT_EQ(once.hybrids_stable, 1u);
  EXPECT_EQ(once.total_churn(), 0u);

  const Diff resolved = diff(a, QueryIndex(none));
  EXPECT_EQ(resolved.hybrids_resolved, (std::vector<LinkKey>{LinkKey(1, 2)}));
  const Diff formed = diff(QueryIndex(none), a);
  EXPECT_EQ(formed.hybrids_formed, (std::vector<LinkKey>{LinkKey(1, 2)}));
}

// Diff output is canonically ordered: shuffled insertion produces the same
// sorted vectors.
TEST(SnapshotDiff, OutputIsCanonicallyOrdered) {
  RelationshipMap b;
  for (const Asn asn : {9, 3, 7, 5}) {
    b.set(asn, asn + 1, Relationship::P2P);
  }
  const FamilyDiff fam = diff(QueryIndex(Snapshot{}), QueryIndex(maps_only(std::move(b)))).v4;
  const std::vector<LinkKey> expected = {LinkKey(3, 4), LinkKey(5, 6), LinkKey(7, 8),
                                         LinkKey(9, 10)};
  EXPECT_EQ(fam.appeared, expected);
}

/// Reference churn for one family: two ordered maps, walked key by key.
FamilyDiff reference_family(const RelationshipMap& a, const RelationshipMap& b) {
  std::map<LinkKey, Relationship> ma;
  std::map<LinkKey, Relationship> mb;
  for (const auto& [link, rel] : sorted_entries(a)) ma.emplace(link, rel);
  for (const auto& [link, rel] : sorted_entries(b)) mb.emplace(link, rel);
  FamilyDiff out;
  for (const auto& [link, rel] : ma) {
    const auto it = mb.find(link);
    if (it == mb.end()) {
      out.vanished.push_back(link);
    } else if (it->second != rel) {
      out.flips.push_back({link, rel, it->second});
    } else {
      ++out.unchanged;
    }
  }
  for (const auto& [link, rel] : mb) {
    if (!ma.contains(link)) out.appeared.push_back(link);
  }
  return out;
}

// The merge over two images agrees with a map-based reference on a census
// snapshot and a copy perturbed in every bucket: flipped, dropped and new
// links in both families, and hybrids resolved and formed.
TEST(SnapshotDiff, MatchesAMapReferenceOnCensusChurn) {
  const Snapshot& a = census_snapshot();
  Snapshot b = a;
  std::size_t i = 0;
  for (const auto& [link, rel] : sorted_entries(a.rels_v4)) {
    if (i % 5 == 0) b.rels_v4.erase(link.first, link.second);
    if (i % 7 == 0) b.rels_v6.set(link.first, link.second, Relationship::S2S);
    ++i;
  }
  for (const auto& [link, rel] : sorted_entries(a.rels_v6)) {
    if (i++ % 3 == 0) {
      b.rels_v6.set(link.first, link.second,
                    rel == Relationship::P2P ? Relationship::P2C : Relationship::P2P);
    }
  }
  b.rels_v4.set(4000000001u, 4000000002u, Relationship::P2C);
  ASSERT_GE(b.hybrids.size(), 2u);
  b.hybrids.erase(b.hybrids.begin());
  b.hybrids.push_back({LinkKey(4000000001u, 4000000002u), Relationship::P2C,
                       Relationship::Unknown, 0, 1});

  const Diff d = diff(QueryIndex(a), QueryIndex(b));
  EXPECT_EQ(d.v4, reference_family(a.rels_v4, b.rels_v4));
  EXPECT_EQ(d.v6, reference_family(a.rels_v6, b.rels_v6));
  EXPECT_GT(d.v4.vanished.size(), 0u);
  EXPECT_GT(d.v6.flips.size(), 0u);

  std::set<LinkKey> ha;
  std::set<LinkKey> hb;
  for (const auto& h : a.hybrids) ha.insert(h.link);
  for (const auto& h : b.hybrids) hb.insert(h.link);
  std::vector<LinkKey> formed;
  std::vector<LinkKey> resolved;
  std::ranges::set_difference(hb, ha, std::back_inserter(formed));
  std::ranges::set_difference(ha, hb, std::back_inserter(resolved));
  EXPECT_EQ(d.hybrids_formed, formed);
  EXPECT_EQ(d.hybrids_resolved, resolved);
  EXPECT_EQ(d.hybrids_stable, ha.size() - resolved.size());
}

// ---------------------------------------------------------------- query

TEST(SnapshotQuery, PairLookupIsOriented) {
  const QueryIndex index(tiny_snapshot());
  const auto forward = index.lookup(1, 2);
  ASSERT_TRUE(forward.has_value());
  EXPECT_EQ(forward->rel_v4, Relationship::P2C);
  EXPECT_EQ(forward->rel_v6, Relationship::P2P);
  EXPECT_TRUE(forward->hybrid);

  const auto backward = index.lookup(2, 1);
  ASSERT_TRUE(backward.has_value());
  EXPECT_EQ(backward->rel_v4, Relationship::C2P);
  EXPECT_EQ(backward->rel_v6, Relationship::P2P);
  EXPECT_TRUE(backward->hybrid);

  EXPECT_FALSE(index.lookup(1, 3).has_value());
  EXPECT_FALSE(index.lookup(99, 100).has_value());
}

TEST(SnapshotQuery, NeighborListsAreSortedAndComplete) {
  const QueryIndex index(tiny_snapshot());
  EXPECT_EQ(index.link_count(), 2u);
  EXPECT_EQ(index.as_count(), 3u);
  EXPECT_EQ(index.hybrid_count(), 1u);

  const auto neighbors = index.neighbors(2);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].asn, 1u);
  EXPECT_EQ(neighbors[0].info.rel_v4, Relationship::C2P);  // 2 -> 1
  EXPECT_TRUE(neighbors[0].info.hybrid);
  EXPECT_EQ(neighbors[1].asn, 3u);
  EXPECT_EQ(neighbors[1].info.rel_v4, Relationship::P2P);
  EXPECT_FALSE(neighbors[1].info.hybrid);

  EXPECT_TRUE(index.neighbors(42).empty());
  EXPECT_FALSE(index.contains(42));
  EXPECT_TRUE(index.contains(3));
}

// A link only one family knows still resolves, with the other family
// Unknown.
TEST(SnapshotQuery, SingleFamilyLinksResolve) {
  Snapshot snap;
  snap.rels_v6.set(10, 11, Relationship::C2P);
  const QueryIndex index(snap);
  const auto info = index.lookup(10, 11);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->rel_v4, Relationship::Unknown);
  EXPECT_EQ(info->rel_v6, Relationship::C2P);
  EXPECT_FALSE(info->hybrid);
}

// v6-only links (the paper's deep IPv6 periphery: no v4 counterpart at all)
// must index, orient, and appear in neighbor lists like any other link.
TEST(SnapshotQuery, V6OnlyLinksOrientAndList) {
  Snapshot snap;
  snap.rels_v6.set(20, 21, Relationship::P2C);  // 20 provides transit to 21
  snap.rels_v6.set(21, 22, Relationship::P2P);
  const QueryIndex index(snap);
  EXPECT_EQ(index.link_count(), 2u);
  EXPECT_EQ(index.as_count(), 3u);
  EXPECT_EQ(index.hybrid_count(), 0u);

  const auto reversed = index.lookup(21, 20);
  ASSERT_TRUE(reversed.has_value());
  EXPECT_EQ(reversed->rel_v4, Relationship::Unknown);  // reverse(Unknown) stays Unknown
  EXPECT_EQ(reversed->rel_v6, Relationship::C2P);
  EXPECT_FALSE(reversed->hybrid);

  const auto neighbors = index.neighbors(21);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].asn, 20u);
  EXPECT_EQ(neighbors[0].info.rel_v6, Relationship::C2P);
  EXPECT_EQ(neighbors[1].asn, 22u);
  EXPECT_EQ(neighbors[1].info.rel_v6, Relationship::P2P);
}

TEST(SnapshotQuery, EmptySnapshotAnswersEverythingWithNothing) {
  const QueryIndex index(Snapshot{});
  EXPECT_EQ(index.link_count(), 0u);
  EXPECT_EQ(index.as_count(), 0u);
  EXPECT_EQ(index.hybrid_count(), 0u);
  EXPECT_FALSE(index.lookup(1, 2).has_value());
  EXPECT_FALSE(index.contains(0));
  EXPECT_TRUE(index.neighbors(1).empty());
}

// Since v2 the index IS the encoded image, so a hand-built snapshot that
// the format rejects (a self-loop link) cannot be indexed either — the
// constructor surfaces Writer::encode's InvalidArgument instead of
// inventing answers the on-disk form could never round-trip.
TEST(SnapshotQuery, SelfLoopSnapshotsAreUnindexable) {
  Snapshot snap;
  snap.rels_v4.set(5, 5, Relationship::S2S);
  snap.rels_v4.set(5, 6, Relationship::P2C);
  EXPECT_THROW(QueryIndex{snap}, InvalidArgument);

  Snapshot hybrid_self;
  hybrid_self.hybrids.push_back({LinkKey(7, 7), Relationship::P2P, Relationship::S2S, 0, 1});
  EXPECT_THROW(QueryIndex{hybrid_self}, InvalidArgument);
}

// A link listed only in the hybrid table (neither family map knows it) still
// indexes: present, hybrid, Unknown in both families.
TEST(SnapshotQuery, HybridOnlyLinksResolveAsUnknownFamilies) {
  Snapshot snap;
  snap.hybrids.push_back({LinkKey(7, 8), Relationship::Unknown, Relationship::Unknown, 0, 1});
  snap.hybrids.push_back({LinkKey(7, 8), Relationship::Unknown, Relationship::Unknown, 1, 2});
  const QueryIndex index(snap);
  EXPECT_EQ(index.hybrid_count(), 1u);        // one distinct hybrid link...
  EXPECT_EQ(index.hybrid_entry_count(), 2u);  // ...from two table entries
  const auto info = index.lookup(7, 8);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->hybrid);
  EXPECT_EQ(info->rel_v4, Relationship::Unknown);
  EXPECT_EQ(info->rel_v6, Relationship::Unknown);
  const auto neighbors = index.neighbors(7);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].asn, 8u);
  EXPECT_TRUE(neighbors[0].info.hybrid);
}

// File-backed construction: open() (owned bytes) and open_mapped() (mmap)
// answer identically, and the metadata accessors report the file faithfully.
TEST(SnapshotQuery, OpenAndOpenMappedServeIdentically) {
  const std::string path = ::testing::TempDir() + "/query_v2.snap";
  Writer::write_file(tiny_snapshot(), path);

  const QueryIndex eager = QueryIndex::open(path);
  const QueryIndex mapped = QueryIndex::open_mapped(path);

  EXPECT_EQ(eager.format_version(), 2u);
  EXPECT_EQ(mapped.format_version(), 2u);
  EXPECT_EQ(eager.snapshot_bytes(), kTinyV2Size);
  EXPECT_EQ(mapped.snapshot_bytes(), kTinyV2Size);
  EXPECT_FALSE(eager.is_mapped());
  EXPECT_TRUE(mapped.is_mapped());

  for (const QueryIndex* index : {&eager, &mapped}) {
    EXPECT_EQ(index->link_count(), 2u);
    EXPECT_EQ(index->as_count(), 3u);
    EXPECT_EQ(index->hybrid_count(), 1u);
    EXPECT_EQ(index->source(), "tiny.mrt");
    EXPECT_EQ(index->timestamp(), 1700000000u);
    const auto info = index->lookup(2, 1);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->rel_v4, Relationship::C2P);
    EXPECT_TRUE(info->hybrid);
    EXPECT_EQ(index->neighbors(2).size(), 2u);
  }

  std::remove(path.c_str());
}

// A view created before a rename()-replacement keeps answering from the old
// image (the mapping pins the inode; owned bytes trivially survive).
TEST(SnapshotQuery, MappedViewSurvivesFileReplacement) {
  const std::string path = ::testing::TempDir() + "/replace.snap";
  Writer::write_file(tiny_snapshot(), path);
  const QueryIndex before = QueryIndex::open_mapped(path);

  Snapshot changed = tiny_snapshot();
  changed.rels_v4.set(1, 2, Relationship::P2P);  // flip the (1,2) relationship
  Writer::write_file(changed, path);             // atomic rename-replace

  EXPECT_EQ(before.lookup(1, 2)->rel_v4, Relationship::P2C);  // old bytes
  const QueryIndex after = QueryIndex::open_mapped(path);
  EXPECT_EQ(after.lookup(1, 2)->rel_v4, Relationship::P2P);   // new bytes
  std::remove(path.c_str());
}

TEST(SnapshotQuery, AgreesWithCensusMaps) {
  const Snapshot& snap = census_snapshot();
  const QueryIndex index(snap);
  std::size_t checked = 0;
  for (const auto& [link, rel] : sorted_entries(snap.rels_v4)) {
    const auto info = index.lookup(link.first, link.second);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->rel_v4, rel);
    if (++checked == 64) break;
  }
  for (const auto& h : snap.hybrids) {
    const auto info = index.lookup(h.link.first, h.link.second);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->hybrid);
    EXPECT_EQ(info->rel_v4, h.rel_v4);
    EXPECT_EQ(info->rel_v6, h.rel_v6);
  }
}

}  // namespace
}  // namespace htor::snapshot
