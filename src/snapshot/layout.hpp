// Snapshot format v2: the mmap-able flat layout and its checked view.
//
// v2 lays the durable census out as fixed-width, offset-indexed sections so
// a file can be queried *in place* — no per-entry decode, no hash maps:
//
//   header block (312 bytes)
//     magic 'HTSN' · version 2 · timestamp · file size · AS count A ·
//     source length S · link count L · hybrid count H · six section
//     offsets · the 27 dataset/coverage/valley/hybrid counters
//   AS intern table     A x u32   endpoint ASNs, strictly ascending; the
//                                 dense AS id is the table index
//   adjacency index     (A+1) x u64  CSR row starts into the entry table;
//                                 index[0] = 0, index[A] = 2L
//   adjacency entries   2L x {u32 neighbor id, u32 link index}  per-AS
//                                 lists strictly ascending by neighbor id
//   link table          L x {u32 first, u32 second, u8 rel_v4, u8 rel_v6,
//                                 u8 flags, u8 pad}  sorted by (first,
//                                 second); binary-searchable in the file
//   hybrid table        H x {u32 first, u32 second, u8 rel_v4, u8 rel_v6,
//                                 u8 class, u8 pad, u64 v6 visibility}
//                                 census order, stored verbatim
//   source path         S bytes
//   trailer 'ENDS'
//
// Everything is big-endian (BE unsigned integers compare lexicographically,
// so the in-file binary search needs no byte swapping) and every section
// starts 8-byte aligned with zero padding.  The layout is canonical: strict
// orders, exact packed offsets, presence-flag rules, and zero padding make
// the encoding injective — one byte form per snapshot — which keeps the
// fuzz validate→rebuild→re-encode identity oracle sound for v2.
//
// validate_v2() is the one way into snapshot bytes: it proves the whole
// file well-formed (reasoned DecodeError otherwise, version mismatches
// included) before any view is handed out; the accessors below then read
// through bounds-checked big-endian loads, so raw-pointer arithmetic never
// leaks above this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "snapshot/snapshot.hpp"

namespace htor::snapshot {

/// Fixed header-block field offsets (all fields big-endian).
inline constexpr std::size_t kV2OffMagic = 0;
inline constexpr std::size_t kV2OffVersion = 4;
inline constexpr std::size_t kV2OffTimestamp = 8;
inline constexpr std::size_t kV2OffFileSize = 16;
inline constexpr std::size_t kV2OffAsnCount = 24;
inline constexpr std::size_t kV2OffSourceLen = 28;
inline constexpr std::size_t kV2OffLinkCount = 32;
inline constexpr std::size_t kV2OffHybridCount = 40;
inline constexpr std::size_t kV2OffSectionOffsets = 48;  ///< six u64s
inline constexpr std::size_t kV2OffCounters = 96;        ///< 27 u64s
inline constexpr std::size_t kV2HeaderBytes = 312;

inline constexpr std::size_t kV2LinkRowBytes = 12;
inline constexpr std::size_t kV2AdjEntryBytes = 8;
inline constexpr std::size_t kV2HybridRowBytes = 20;

/// Link-row flag bits.  A row exists because the link is in the v4 map, the
/// v6 map, the hybrid table, or any combination; a presence-clear family's
/// relationship byte must be Unknown, so the maps reconstruct exactly.
inline constexpr std::uint8_t kV2FlagHybrid = 0x01;
inline constexpr std::uint8_t kV2FlagInV4 = 0x02;
inline constexpr std::uint8_t kV2FlagInV6 = 0x04;

/// A validated window onto one v2 snapshot image.  Plain value type: copies
/// share the underlying bytes, whose lifetime the caller owns (see
/// MappedSnapshot for the shared-ownership wrapper).
struct V2View {
  std::span<const std::uint8_t> bytes;

  std::uint64_t timestamp = 0;
  std::uint32_t asn_count = 0;
  std::uint32_t source_len = 0;
  std::uint64_t link_count = 0;
  std::uint64_t hybrid_count = 0;      ///< hybrid-table entries (census order)
  std::uint64_t hybrid_link_count = 0; ///< distinct link rows flagged hybrid
  std::uint64_t off_asn = 0;
  std::uint64_t off_adj_index = 0;
  std::uint64_t off_adj = 0;
  std::uint64_t off_links = 0;
  std::uint64_t off_hybrids = 0;
  std::uint64_t off_source = 0;

  /// One link row, decoded on access.
  struct LinkRow {
    Asn first = 0;
    Asn second = 0;
    Relationship rel_v4 = Relationship::Unknown;
    Relationship rel_v6 = Relationship::Unknown;
    bool hybrid = false;
    bool in_v4 = false;
    bool in_v6 = false;
  };

  struct AdjEntry {
    std::uint32_t neighbor_id = 0;
    std::uint32_t link_index = 0;
  };

  Asn asn_at(std::uint32_t id) const;
  LinkRow link_at(std::uint64_t index) const;
  HybridLink hybrid_at(std::uint64_t index) const;
  AdjEntry adj_at(std::uint64_t index) const;
  /// [begin, end) range of adjacency entries for dense AS `id`.
  std::pair<std::uint64_t, std::uint64_t> adj_range(std::uint32_t id) const;

  /// Dense id of `asn`, or nullopt when it is not interned.
  std::optional<std::uint32_t> find_asn(Asn asn) const;
  /// Link-table index of the (unordered) pair {a, b}, or nullopt.  Branchless
  /// binary search over the big-endian packed keys, directly in the file.
  std::optional<std::uint64_t> find_link(Asn a, Asn b) const;

  std::string source() const;
  DatasetStats dataset() const;
  CoverageCounters coverage(int which) const;  ///< 0 = v4, 1 = v6, 2 = dual
  ValleyCounters valleys(int which) const;     ///< 0 = v4, 1 = v6
  HybridCounters hybrid_counters() const;

  /// Bounds-checked big-endian loads over the image.  Post-validation these
  /// can only throw on a programming error, but they keep the decoder
  /// discipline: no access without a bounds check.
  std::uint8_t u8_at(std::uint64_t off) const;
  std::uint32_t u32_at(std::uint64_t off) const;
  std::uint64_t u64_at(std::uint64_t off) const;

  /// Unchecked big-endian loads, legal ONLY at offsets already proven
  /// in-bounds: validate_v2 pins every section inside the file (counts
  /// bounded, offsets equal to the recomputed packed layout, total equal to
  /// the byte count) before its scan loops switch to these.  Nothing
  /// outside this module should need them.
  std::uint8_t u8_raw(std::uint64_t off) const { return bytes[off]; }
  std::uint32_t u32_raw(std::uint64_t off) const {
    return std::uint32_t{bytes[off]} << 24 | std::uint32_t{bytes[off + 1]} << 16 |
           std::uint32_t{bytes[off + 2]} << 8 | std::uint32_t{bytes[off + 3]};
  }
  std::uint64_t u64_raw(std::uint64_t off) const {
    return std::uint64_t{u32_raw(off)} << 32 | std::uint64_t{u32_raw(off + 4)};
  }
};

/// Validate `data` as one complete v2 snapshot and return its view.  This is
/// the only reader of snapshot bytes, so it owns the version check: a v1
/// file is rejected with a reason naming `hybridtor census --snapshot-out`
/// as the way to regenerate it, any other version with the version this
/// build reads.  Past the header it checks everything the format promises —
/// the declared file size against the actual byte count, count fields
/// against remaining bytes, section offsets against the recomputed packed
/// layout, 8-byte alignment and zero padding, strict canonical orders,
/// flag/relationship/class ranges, CSR consistency with the link table,
/// hybrid-flag consistency with the hybrid table, coverage sanity, and the
/// trailer — and throws a reasoned DecodeError before any view escapes.
V2View validate_v2(std::span<const std::uint8_t> data);

}  // namespace htor::snapshot
