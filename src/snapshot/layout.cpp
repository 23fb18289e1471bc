#include "snapshot/layout.hpp"

#include <vector>

#include "util/error.hpp"

namespace htor::snapshot {

namespace {

constexpr std::uint8_t kRelMax = static_cast<std::uint8_t>(Relationship::Unknown);
constexpr std::uint8_t kV2FlagsMask = kV2FlagHybrid | kV2FlagInV4 | kV2FlagInV6;
// The writer refuses source paths over 64 KiB, so a file declaring more can
// never re-encode; reject it up front to keep the format injective.
constexpr std::uint64_t kMaxSourceLen = 0xffff;

std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

[[noreturn]] void fail(const std::string& reason) { throw DecodeError(reason); }

}  // namespace

std::uint8_t V2View::u8_at(std::uint64_t off) const {
  if (off >= bytes.size()) fail("snapshot v2 view access out of range");
  return bytes[off];
}

std::uint32_t V2View::u32_at(std::uint64_t off) const {
  if (bytes.size() < 4 || off > bytes.size() - 4) fail("snapshot v2 view access out of range");
  return std::uint32_t{bytes[off]} << 24 | std::uint32_t{bytes[off + 1]} << 16 |
         std::uint32_t{bytes[off + 2]} << 8 | std::uint32_t{bytes[off + 3]};
}

std::uint64_t V2View::u64_at(std::uint64_t off) const {
  if (bytes.size() < 8 || off > bytes.size() - 8) fail("snapshot v2 view access out of range");
  return std::uint64_t{u32_at(off)} << 32 | std::uint64_t{u32_at(off + 4)};
}

Asn V2View::asn_at(std::uint32_t id) const { return u32_at(off_asn + 4 * std::uint64_t{id}); }

V2View::LinkRow V2View::link_at(std::uint64_t index) const {
  const std::uint64_t off = off_links + kV2LinkRowBytes * index;
  LinkRow row;
  row.first = u32_at(off);
  row.second = u32_at(off + 4);
  row.rel_v4 = static_cast<Relationship>(u8_at(off + 8));
  row.rel_v6 = static_cast<Relationship>(u8_at(off + 9));
  const std::uint8_t flags = u8_at(off + 10);
  row.hybrid = (flags & kV2FlagHybrid) != 0;
  row.in_v4 = (flags & kV2FlagInV4) != 0;
  row.in_v6 = (flags & kV2FlagInV6) != 0;
  return row;
}

HybridLink V2View::hybrid_at(std::uint64_t index) const {
  const std::uint64_t off = off_hybrids + kV2HybridRowBytes * index;
  HybridLink h;
  h.link = LinkKey(u32_at(off), u32_at(off + 4));
  h.rel_v4 = static_cast<Relationship>(u8_at(off + 8));
  h.rel_v6 = static_cast<Relationship>(u8_at(off + 9));
  h.cls = u8_at(off + 10);
  h.v6_path_visibility = u64_at(off + 12);
  return h;
}

V2View::AdjEntry V2View::adj_at(std::uint64_t index) const {
  const std::uint64_t off = off_adj + kV2AdjEntryBytes * index;
  return {u32_at(off), u32_at(off + 4)};
}

std::pair<std::uint64_t, std::uint64_t> V2View::adj_range(std::uint32_t id) const {
  return {u64_at(off_adj_index + 8 * std::uint64_t{id}),
          u64_at(off_adj_index + 8 * (std::uint64_t{id} + 1))};
}

std::optional<std::uint32_t> V2View::find_asn(Asn asn) const {
  std::uint32_t lo = 0;
  std::uint32_t n = asn_count;
  while (n > 1) {
    const std::uint32_t half = n / 2;
    if (asn_at(lo + half) <= asn) lo += half;
    n -= half;
  }
  if (n == 1 && asn_at(lo) == asn) return lo;
  return std::nullopt;
}

std::optional<std::uint64_t> V2View::find_link(Asn a, Asn b) const {
  const LinkKey key(a, b);
  const std::uint64_t want = std::uint64_t{key.first} << 32 | std::uint64_t{key.second};
  // Branchless binary search: rows sort by (first, second), and the row's
  // first 8 bytes read as a big-endian u64 compare in exactly that order.
  std::uint64_t lo = 0;
  std::uint64_t n = link_count;
  while (n > 1) {
    const std::uint64_t half = n / 2;
    lo += (u64_at(off_links + kV2LinkRowBytes * (lo + half)) <= want) ? half : 0;
    n -= half;
  }
  if (n == 1 && u64_at(off_links + kV2LinkRowBytes * lo) == want) return lo;
  return std::nullopt;
}

std::string V2View::source() const {
  std::string out;
  out.reserve(source_len);
  for (std::uint32_t i = 0; i < source_len; ++i) {
    out.push_back(static_cast<char>(u8_at(off_source + i)));
  }
  return out;
}

DatasetStats V2View::dataset() const {
  DatasetStats d;
  d.v4_paths = u64_at(kV2OffCounters);
  d.v6_paths = u64_at(kV2OffCounters + 8);
  d.v4_links = u64_at(kV2OffCounters + 16);
  d.v6_links = u64_at(kV2OffCounters + 24);
  d.dual_links = u64_at(kV2OffCounters + 32);
  return d;
}

CoverageCounters V2View::coverage(int which) const {
  const std::uint64_t base = kV2OffCounters + 40 + 16 * static_cast<std::uint64_t>(which);
  return {u64_at(base), u64_at(base + 8)};
}

ValleyCounters V2View::valleys(int which) const {
  const std::uint64_t base = kV2OffCounters + 88 + 48 * static_cast<std::uint64_t>(which);
  ValleyCounters v;
  v.paths = u64_at(base);
  v.valley_free = u64_at(base + 8);
  v.valley = u64_at(base + 16);
  v.incomplete = u64_at(base + 24);
  v.classified_valleys = u64_at(base + 32);
  v.necessary_valleys = u64_at(base + 40);
  return v;
}

HybridCounters V2View::hybrid_counters() const {
  const std::uint64_t base = kV2OffCounters + 184;
  HybridCounters h;
  h.dual_links_observed = u64_at(base);
  h.dual_links_both_known = u64_at(base + 8);
  h.v6_paths_total = u64_at(base + 16);
  h.v6_paths_with_hybrid = u64_at(base + 24);
  return h;
}

V2View validate_v2(std::span<const std::uint8_t> data) {
  V2View v;
  v.bytes = data;
  // Magic and version come first, so a file of another version (even one
  // shorter than a v2 header) is rejected for its version, not its layout.
  if (data.size() >= kV2OffVersion + 4) {
    if (v.u32_at(kV2OffMagic) != kMagic) fail("not a hybridtor snapshot (bad magic)");
    const std::uint32_t version = v.u32_at(kV2OffVersion);
    if (version == 1) {
      fail("snapshot format v1 is no longer read; regenerate the snapshot with "
           "`hybridtor census --snapshot-out <file>`");
    }
    if (version != kFormatVersion) {
      fail("unsupported snapshot format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kFormatVersion) + ")");
    }
  }
  if (data.size() < kV2HeaderBytes) {
    fail("snapshot v2 header truncated (need " + std::to_string(kV2HeaderBytes) +
         " bytes, have " + std::to_string(data.size()) + ")");
  }

  const std::uint64_t size = data.size();
  const std::uint64_t declared = v.u64_at(kV2OffFileSize);
  if (declared != size) {
    fail("snapshot v2 size field " + std::to_string(declared) + " does not match the file's " +
         std::to_string(size) + " bytes");
  }

  v.timestamp = v.u64_at(kV2OffTimestamp);
  v.asn_count = v.u32_at(kV2OffAsnCount);
  v.source_len = v.u32_at(kV2OffSourceLen);
  v.link_count = v.u64_at(kV2OffLinkCount);
  v.hybrid_count = v.u64_at(kV2OffHybridCount);

  // Bound every count against the bytes actually present before any offset
  // arithmetic or allocation — a garbage count fails cleanly, never
  // over-allocates, and the partial sums below can never overflow.
  if (v.source_len > kMaxSourceLen) {
    fail("snapshot v2 source length " + std::to_string(v.source_len) + " exceeds " +
         std::to_string(kMaxSourceLen));
  }
  if (v.asn_count > size / 4) {
    fail("snapshot v2 AS count " + std::to_string(v.asn_count) + " overruns the file");
  }
  if (v.link_count > size / (2 * kV2AdjEntryBytes)) {
    fail("snapshot v2 link count " + std::to_string(v.link_count) + " overruns the file");
  }
  if (v.hybrid_count > size / kV2HybridRowBytes) {
    fail("snapshot v2 hybrid count " + std::to_string(v.hybrid_count) + " overruns the file");
  }

  // The packed layout is a function of the counts alone; the stored section
  // offsets must match it exactly (no gaps, no overlaps, no reordering).
  const std::uint64_t asn_count = v.asn_count;
  const std::uint64_t expect_asn = kV2HeaderBytes;
  const std::uint64_t expect_adj_index = align8(expect_asn + 4 * asn_count);
  const std::uint64_t expect_adj = expect_adj_index + 8 * (asn_count + 1);
  const std::uint64_t expect_links = expect_adj + 2 * kV2AdjEntryBytes * v.link_count;
  const std::uint64_t expect_hybrids = align8(expect_links + kV2LinkRowBytes * v.link_count);
  const std::uint64_t expect_source = align8(expect_hybrids + kV2HybridRowBytes * v.hybrid_count);
  const std::uint64_t expect_size = expect_source + v.source_len + 4;

  v.off_asn = v.u64_at(kV2OffSectionOffsets);
  v.off_adj_index = v.u64_at(kV2OffSectionOffsets + 8);
  v.off_adj = v.u64_at(kV2OffSectionOffsets + 16);
  v.off_links = v.u64_at(kV2OffSectionOffsets + 24);
  v.off_hybrids = v.u64_at(kV2OffSectionOffsets + 32);
  v.off_source = v.u64_at(kV2OffSectionOffsets + 40);

  const struct {
    const char* name;
    std::uint64_t stored;
    std::uint64_t expected;
  } sections[] = {
      {"AS table", v.off_asn, expect_asn},
      {"adjacency index", v.off_adj_index, expect_adj_index},
      {"adjacency entries", v.off_adj, expect_adj},
      {"link table", v.off_links, expect_links},
      {"hybrid table", v.off_hybrids, expect_hybrids},
      {"source", v.off_source, expect_source},
  };
  for (const auto& s : sections) {
    if (s.stored != s.expected) {
      fail(std::string("snapshot v2 section offset corrupt (") + s.name + " at " +
           std::to_string(s.stored) + ", layout says " + std::to_string(s.expected) + ")");
    }
  }
  if (expect_size != size) {
    fail("snapshot v2 sections do not fill the file (" + std::to_string(expect_size) +
         " bytes laid out, " + std::to_string(size) + " present)");
  }
  if (v.u32_at(size - 4) != kTrailer) {
    fail("snapshot trailer missing (file truncated or corrupt)");
  }

  // Alignment padding must be zero — nonzero pad bytes would make two
  // distinct files decode to the same snapshot.
  const std::pair<std::uint64_t, std::uint64_t> pads[] = {
      {expect_asn + 4 * asn_count, expect_adj_index},
      {expect_links + kV2LinkRowBytes * v.link_count, expect_hybrids},
      {expect_hybrids + kV2HybridRowBytes * v.hybrid_count, expect_source},
  };
  // Every section now provably sits inside the file (counts bounded, stored
  // offsets equal to the recomputed layout, total equal to the byte count),
  // so the scan loops below read through the unchecked raw accessors — the
  // bounds work is done once, above, not per field.
  for (const auto& [from, to] : pads) {
    for (std::uint64_t i = from; i < to; ++i) {
      if (v.u8_raw(i) != 0) fail("snapshot v2 padding bytes not zero");
    }
  }

  if (v.asn_count > 0) {
    std::uint32_t prev = v.u32_raw(v.off_asn);
    for (std::uint32_t i = 1; i < v.asn_count; ++i) {
      const std::uint32_t cur = v.u32_raw(v.off_asn + 4 * std::uint64_t{i});
      if (prev >= cur) fail("snapshot v2 AS table out of canonical order");
      prev = cur;
    }
  }

  if (v.u64_raw(v.off_adj_index) != 0) fail("snapshot v2 adjacency index does not start at zero");
  std::uint64_t prev_row_end = 0;
  for (std::uint32_t i = 0; i < v.asn_count; ++i) {
    const std::uint64_t end = v.u64_raw(v.off_adj_index + 8 * (std::uint64_t{i} + 1));
    // Strictly increasing: an interned AS with no links would be dead weight
    // the canonical writer never emits.
    if (prev_row_end >= end) {
      fail("snapshot v2 adjacency index out of order (every interned AS has degree >= 1)");
    }
    prev_row_end = end;
  }
  if (prev_row_end != 2 * v.link_count) {
    fail("snapshot v2 adjacency index does not cover both endpoints of every link");
  }

  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < v.link_count; ++i) {
    const std::uint64_t off = v.off_links + kV2LinkRowBytes * i;
    const std::uint32_t first = v.u32_raw(off);
    const std::uint32_t second = v.u32_raw(off + 4);
    if (first >= second) {
      fail("snapshot link AS" + std::to_string(first) + "-AS" + std::to_string(second) +
           " is not a canonical AS pair");
    }
    const std::uint64_t key = std::uint64_t{first} << 32 | std::uint64_t{second};
    if (i > 0 && key <= prev_key) fail("snapshot v2 link table out of canonical order");
    prev_key = key;
    const std::uint8_t rel_v4 = v.u8_raw(off + 8);
    const std::uint8_t rel_v6 = v.u8_raw(off + 9);
    if (rel_v4 > kRelMax || rel_v6 > kRelMax) {
      fail("snapshot relationship value " + std::to_string(rel_v4 > kRelMax ? rel_v4 : rel_v6) +
           " out of range");
    }
    const std::uint8_t flags = v.u8_raw(off + 10);
    if ((flags & ~kV2FlagsMask) != 0) {
      fail("snapshot v2 link flags " + std::to_string(flags) + " have reserved bits set");
    }
    if (flags == 0) fail("snapshot v2 link row belongs to no family and no hybrid");
    if ((flags & kV2FlagInV4) == 0 && rel_v4 != kRelMax) {
      fail("snapshot v2 link row carries a relationship for an absent family");
    }
    if ((flags & kV2FlagInV6) == 0 && rel_v6 != kRelMax) {
      fail("snapshot v2 link row carries a relationship for an absent family");
    }
    if (v.u8_raw(off + 11) != 0) fail("snapshot v2 link row padding not zero");
    if ((flags & kV2FlagHybrid) != 0) ++v.hybrid_link_count;
  }

  // Hybrid entries are stored verbatim (census order, duplicates allowed),
  // but every one must point at a link row flagged hybrid — and every row
  // flagged hybrid must be pointed at, or the flag would not survive a
  // rebuild→re-encode round trip.
  std::vector<std::uint8_t> seen((v.link_count + 7) / 8, 0);
  for (std::uint64_t i = 0; i < v.hybrid_count; ++i) {
    const std::uint64_t off = v.off_hybrids + kV2HybridRowBytes * i;
    const std::uint32_t first = v.u32_raw(off);
    const std::uint32_t second = v.u32_raw(off + 4);
    if (first >= second) {
      fail("snapshot link AS" + std::to_string(first) + "-AS" + std::to_string(second) +
           " is not a canonical AS pair");
    }
    const std::uint8_t rel_v4 = v.u8_raw(off + 8);
    const std::uint8_t rel_v6 = v.u8_raw(off + 9);
    if (rel_v4 > kRelMax || rel_v6 > kRelMax) {
      fail("snapshot relationship value " + std::to_string(rel_v4 > kRelMax ? rel_v4 : rel_v6) +
           " out of range");
    }
    const std::uint8_t cls = v.u8_raw(off + 10);
    if (cls > 3) fail("snapshot hybrid class value " + std::to_string(cls) + " out of range");
    if (v.u8_raw(off + 11) != 0) fail("snapshot v2 hybrid row padding not zero");
    const auto row = v.find_link(first, second);
    if (!row ||
        (v.u8_raw(v.off_links + kV2LinkRowBytes * *row + 10) & kV2FlagHybrid) == 0) {
      fail("snapshot v2 hybrid entry AS" + std::to_string(first) + "-AS" +
           std::to_string(second) + " missing from the link table");
    }
    seen[*row / 8] |= static_cast<std::uint8_t>(1u << (*row % 8));
  }
  std::uint64_t marked = 0;
  for (std::uint64_t i = 0; i < v.link_count; ++i) {
    marked += (seen[i / 8] >> (i % 8)) & 1u;
  }
  if (marked != v.hybrid_link_count) {
    fail("snapshot v2 link flagged hybrid but absent from the hybrid table");
  }

  // CSR consistency: every adjacency entry must name an interned neighbor,
  // reference the one link joining owner and neighbor, and keep each list
  // strictly ascending.  Together with the 2L total this pins the adjacency
  // sections to exactly one byte form per link table.
  for (std::uint32_t owner = 0; owner < v.asn_count; ++owner) {
    const std::uint64_t begin = v.u64_raw(v.off_adj_index + 8 * std::uint64_t{owner});
    const std::uint64_t end = v.u64_raw(v.off_adj_index + 8 * (std::uint64_t{owner} + 1));
    const Asn owner_asn = v.u32_raw(v.off_asn + 4 * std::uint64_t{owner});
    std::uint32_t prev_neighbor = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::uint64_t entry_off = v.off_adj + kV2AdjEntryBytes * i;
      const std::uint32_t neighbor_id = v.u32_raw(entry_off);
      const std::uint32_t link_index = v.u32_raw(entry_off + 4);
      if (neighbor_id >= v.asn_count) {
        fail("snapshot v2 adjacency neighbor id out of range");
      }
      if (link_index >= v.link_count) {
        fail("snapshot v2 adjacency link index out of range");
      }
      if (i > begin && neighbor_id <= prev_neighbor) {
        fail("snapshot v2 adjacency list out of canonical order");
      }
      prev_neighbor = neighbor_id;
      const LinkKey key(owner_asn, v.u32_raw(v.off_asn + 4 * std::uint64_t{neighbor_id}));
      const std::uint64_t row_off = v.off_links + kV2LinkRowBytes * link_index;
      if (v.u32_raw(row_off) != key.first || v.u32_raw(row_off + 4) != key.second) {
        fail("snapshot v2 adjacency entry does not match its link");
      }
    }
  }

  for (int which = 0; which < 3; ++which) {
    const CoverageCounters c = v.coverage(which);
    if (c.covered > c.observed) {
      fail("snapshot coverage counters corrupt (covered > observed)");
    }
  }

  return v;
}

}  // namespace htor::snapshot
