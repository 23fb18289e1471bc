// Persistent census snapshots: the durable core of one CensusReport, tied to
// the collector RIB it was measured from.
//
// A snapshot is what a multi-RIB study keeps per dump: the per-family
// relationship maps, the hybrid links, and the coverage/valley counters —
// everything needed to diff two measurement epochs or answer AS-level
// queries without re-running the census.  The on-disk form is a versioned,
// big-endian binary format: writer.hpp encodes it, and every read goes
// through layout.hpp's validate_v2 (the QueryIndex view and diff.hpp) with
// the same fail-clean discipline as the MRT readers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "topology/relationship.hpp"

namespace htor::snapshot {

/// File magic, "HTSN" big-endian.
inline constexpr std::uint32_t kMagic = 0x4854534eu;
/// Trailer magic, "ENDS" big-endian: a reader that does not reach it read a
/// truncated or corrupt file.
inline constexpr std::uint32_t kTrailer = 0x454e4453u;
/// Current format version: v2, the mmap-able flat layout (layout.hpp).
/// validate_v2 rejects every other version with a reasoned DecodeError, so
/// old binaries fail cleanly on files from the future instead of misreading
/// them, and a retired v1 file names the command that regenerates it.
inline constexpr std::uint32_t kFormatVersion = 2;

struct Header {
  std::uint64_t timestamp = 0;  ///< RIB epoch (MRT timestamp), unix seconds
  std::string source;           ///< path of the MRT file the census consumed

  friend bool operator==(const Header&, const Header&) = default;
};

/// Paper §3 ¶1 dataset statistics.
struct DatasetStats {
  std::uint64_t v4_paths = 0;  ///< distinct IPv4 AS paths
  std::uint64_t v6_paths = 0;
  std::uint64_t v4_links = 0;  ///< distinct IPv4 AS links observed
  std::uint64_t v6_links = 0;
  std::uint64_t dual_links = 0;  ///< links visible in both families

  friend bool operator==(const DatasetStats&, const DatasetStats&) = default;
};

struct CoverageCounters {
  std::uint64_t observed = 0;
  std::uint64_t covered = 0;

  friend bool operator==(const CoverageCounters&, const CoverageCounters&) = default;
};

struct ValleyCounters {
  std::uint64_t paths = 0;
  std::uint64_t valley_free = 0;
  std::uint64_t valley = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t classified_valleys = 0;
  std::uint64_t necessary_valleys = 0;

  friend bool operator==(const ValleyCounters&, const ValleyCounters&) = default;
};

/// One hybrid link, relationships oriented link.first -> link.second.
struct HybridLink {
  LinkKey link;
  Relationship rel_v4 = Relationship::Unknown;
  Relationship rel_v6 = Relationship::Unknown;
  std::uint8_t cls = 0;  ///< core::HybridClass value
  std::uint64_t v6_path_visibility = 0;

  friend bool operator==(const HybridLink&, const HybridLink&) = default;
};

struct HybridCounters {
  std::uint64_t dual_links_observed = 0;
  std::uint64_t dual_links_both_known = 0;
  std::uint64_t v6_paths_total = 0;
  std::uint64_t v6_paths_with_hybrid = 0;

  friend bool operator==(const HybridCounters&, const HybridCounters&) = default;
};

/// The durable core of one census run.
struct Snapshot {
  Header header;
  DatasetStats dataset;
  CoverageCounters coverage_v4;
  CoverageCounters coverage_v6;
  CoverageCounters coverage_dual;
  ValleyCounters valleys_v4;
  ValleyCounters valleys_v6;
  HybridCounters hybrid_counters;
  RelationshipMap rels_v4;
  RelationshipMap rels_v6;
  /// Census order (IPv6 path visibility, descending).
  std::vector<HybridLink> hybrids;
};

/// A RelationshipMap's entries in canonical LinkKey order (rel oriented
/// key.first -> key.second).  This is the order the writer serializes and
/// validate_v2 enforces, so equal maps always produce equal bytes.
std::vector<std::pair<LinkKey, Relationship>> sorted_entries(const RelationshipMap& map);

}  // namespace htor::snapshot
