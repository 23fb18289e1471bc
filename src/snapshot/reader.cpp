#include "snapshot/reader.hpp"

#include "snapshot/layout.hpp"
#include "util/bytes.hpp"

namespace htor::snapshot {

namespace {

// Magic and version, checked before any layout parsing: every entry point
// (decode, probe, and through probe QueryIndex::open/open_mapped) rejects a
// file of another version with the same reasoned error.
void check_version(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    throw DecodeError("not a hybridtor snapshot (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version == 1) {
    throw DecodeError(
        "snapshot format v1 is no longer read; regenerate the snapshot with "
        "`hybridtor census --snapshot-out <file>`");
  }
  if (version != kFormatVersion) {
    throw DecodeError("unsupported snapshot format version " + std::to_string(version) +
                      " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
}

}  // namespace

// Validate the whole flat image, then materialize the Snapshot — the maps
// from the link rows' presence flags, the hybrid list verbatim.
Snapshot Reader::decode(std::span<const std::uint8_t> data) {
  check_version(data);
  const V2View v = validate_v2(data);
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
  for (std::uint64_t i = 0; i < v.hybrid_count; ++i) {
    snap.hybrids.push_back(v.hybrid_at(i));
  }
  return snap;
}

Snapshot Reader::read_file(const std::string& path) { return decode(load_bytes(path)); }

// The source string lives at the tail of the file, so the probe checks just
// enough of the layout to reach it safely.
Header Reader::probe(std::span<const std::uint8_t> data) {
  check_version(data);
  V2View v;
  v.bytes = data;
  if (data.size() < kV2HeaderBytes) {
    throw DecodeError("snapshot v2 header truncated (need " + std::to_string(kV2HeaderBytes) +
                      " bytes, have " + std::to_string(data.size()) + ")");
  }
  const std::uint64_t declared = v.u64_at(kV2OffFileSize);
  if (declared != data.size()) {
    throw DecodeError("snapshot v2 size field " + std::to_string(declared) +
                      " does not match the file's " + std::to_string(data.size()) + " bytes");
  }
  const std::uint64_t source_len = v.u32_at(kV2OffSourceLen);
  const std::uint64_t off_source = v.u64_at(kV2OffSectionOffsets + 40);
  if (off_source > data.size() || source_len + 4 > data.size() - off_source ||
      off_source + source_len + 4 != data.size()) {
    throw DecodeError("snapshot v2 section offset corrupt (source at " +
                      std::to_string(off_source) + ")");
  }
  Header header;
  header.timestamp = v.u64_at(kV2OffTimestamp);
  v.source_len = static_cast<std::uint32_t>(source_len);
  v.off_source = off_source;
  header.source = v.source();
  return header;
}

}  // namespace htor::snapshot
