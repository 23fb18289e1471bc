#include "snapshot/writer.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot/layout.hpp"
#include "util/bytes.hpp"

namespace htor::snapshot {

namespace {

constexpr std::size_t kMaxSourceLen = 0xffff;

void encode_coverage(ByteWriter& w, const CoverageCounters& c) {
  w.u64(c.observed);
  w.u64(c.covered);
}

void encode_valleys(ByteWriter& w, const ValleyCounters& v) {
  w.u64(v.paths);
  w.u64(v.valley_free);
  w.u64(v.valley);
  w.u64(v.incomplete);
  w.u64(v.classified_valleys);
  w.u64(v.necessary_valleys);
}

std::uint8_t rel_byte(Relationship rel) {
  const auto raw = static_cast<std::uint8_t>(rel);
  if (raw > static_cast<std::uint8_t>(Relationship::Unknown)) {
    throw InvalidArgument("snapshot: relationship value " + std::to_string(raw) +
                          " outside the format's range");
  }
  return raw;
}

void check_canonical(const LinkKey& link) {
  if (link.first >= link.second) {
    throw InvalidArgument("snapshot: link AS" + std::to_string(link.first) + "-AS" +
                          std::to_string(link.second) + " is not a canonical AS pair");
  }
}

void check_class(std::uint8_t cls) {
  if (cls > 3) {
    throw InvalidArgument("snapshot: hybrid class value " + std::to_string(cls) +
                          " outside the format's range");
  }
}

void check_source(const Snapshot& snap) {
  if (snap.header.source.size() > kMaxSourceLen) {
    throw InvalidArgument("snapshot: source path longer than 65535 bytes");
  }
}

void encode_counters(ByteWriter& w, const Snapshot& snap) {
  w.u64(snap.dataset.v4_paths);
  w.u64(snap.dataset.v6_paths);
  w.u64(snap.dataset.v4_links);
  w.u64(snap.dataset.v6_links);
  w.u64(snap.dataset.dual_links);

  encode_coverage(w, snap.coverage_v4);
  encode_coverage(w, snap.coverage_v6);
  encode_coverage(w, snap.coverage_dual);
  encode_valleys(w, snap.valleys_v4);
  encode_valleys(w, snap.valleys_v6);

  w.u64(snap.hybrid_counters.dual_links_observed);
  w.u64(snap.hybrid_counters.dual_links_both_known);
  w.u64(snap.hybrid_counters.v6_paths_total);
  w.u64(snap.hybrid_counters.v6_paths_with_hybrid);
}

void pad_to(ByteWriter& w, std::uint64_t target) {
  while (w.size() < target) w.u8(0);
}

std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

/// One link-table row in the making: both family relationships (Unknown for
/// an absent family, which is what makes the maps reconstruct exactly) plus
/// the provenance flags.
struct RowValue {
  std::uint8_t rel_v4 = static_cast<std::uint8_t>(Relationship::Unknown);
  std::uint8_t rel_v6 = static_cast<std::uint8_t>(Relationship::Unknown);
  std::uint8_t flags = 0;
};

}  // namespace

std::vector<std::uint8_t> Writer::encode(const Snapshot& snap) {
  check_source(snap);

  // Collect one row per link across both family maps and the hybrid list
  // (a hand-built snapshot may list hybrids outside the maps; they become
  // rows with both relationships Unknown).  Gather into a flat vector, sort
  // by canonical key, then merge equal-key runs — the output is independent
  // of hash-map iteration order and thread count, without the per-insert
  // allocations a node-based map would pay on the write path.
  std::vector<std::pair<LinkKey, RowValue>> rows;
  rows.reserve(snap.rels_v4.size() + snap.rels_v6.size() + snap.hybrids.size());
  snap.rels_v4.for_each([&](const LinkKey& key, Relationship rel) {
    check_canonical(key);
    rows.emplace_back(key, RowValue{rel_byte(rel),
                                    static_cast<std::uint8_t>(Relationship::Unknown),
                                    kV2FlagInV4});
  });
  snap.rels_v6.for_each([&](const LinkKey& key, Relationship rel) {
    check_canonical(key);
    rows.emplace_back(key, RowValue{static_cast<std::uint8_t>(Relationship::Unknown),
                                    rel_byte(rel), kV2FlagInV6});
  });
  for (const auto& h : snap.hybrids) {
    check_canonical(h.link);
    rel_byte(h.rel_v4);
    rel_byte(h.rel_v6);
    check_class(h.cls);
    rows.emplace_back(h.link, RowValue{static_cast<std::uint8_t>(Relationship::Unknown),
                                       static_cast<std::uint8_t>(Relationship::Unknown),
                                       kV2FlagHybrid});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  {
    // Merge runs of the same link: each source contributes only its own
    // field, so a flag-guarded copy combines them losslessly.
    std::size_t out = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (out > 0 && rows[out - 1].first == rows[i].first) {
        RowValue& row = rows[out - 1].second;
        const RowValue& add = rows[i].second;
        if (add.flags & kV2FlagInV4) row.rel_v4 = add.rel_v4;
        if (add.flags & kV2FlagInV6) row.rel_v6 = add.rel_v6;
        row.flags |= add.flags;
      } else {
        rows[out++] = rows[i];
      }
    }
    rows.resize(out);
  }

  // Intern the endpoint ASNs; the dense id is the sorted position.
  std::vector<Asn> asns;
  asns.reserve(rows.size() * 2);
  for (const auto& [key, row] : rows) {
    asns.push_back(key.first);
    asns.push_back(key.second);
  }
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  // Dense ids and adjacency link indexes are u32 in the file.
  if (rows.size() > 0xffffffffull || asns.size() > 0xffffffffull) {
    throw InvalidArgument("snapshot: too many links for the v2 format");
  }
  const auto dense_id = [&](Asn asn) {
    return static_cast<std::uint32_t>(
        std::lower_bound(asns.begin(), asns.end(), asn) - asns.begin());
  };

  // CSR adjacency: each link contributes one entry per endpoint, lists
  // sorted by neighbor id (unique per list — links are unique pairs).
  // Built counting-sort style into one flat buffer: degree pass, prefix
  // sums, placement, then a per-slice sort.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> endpoint_ids(rows.size());
  std::vector<std::uint64_t> adj_offsets(asns.size() + 1, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    endpoint_ids[i] = {dense_id(rows[i].first.first), dense_id(rows[i].first.second)};
    ++adj_offsets[endpoint_ids[i].first + 1];
    ++adj_offsets[endpoint_ids[i].second + 1];
  }
  for (std::size_t a = 1; a < adj_offsets.size(); ++a) adj_offsets[a] += adj_offsets[a - 1];
  std::vector<std::pair<std::uint32_t, std::uint32_t>> adj_entries(2 * rows.size());
  {
    std::vector<std::uint64_t> cursor(adj_offsets.begin(), adj_offsets.end() - 1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto [ia, ib] = endpoint_ids[i];
      const auto link_index = static_cast<std::uint32_t>(i);
      adj_entries[cursor[ia]++] = {ib, link_index};
      adj_entries[cursor[ib]++] = {ia, link_index};
    }
  }
  for (std::size_t a = 0; a < asns.size(); ++a) {
    std::sort(adj_entries.begin() + static_cast<std::ptrdiff_t>(adj_offsets[a]),
              adj_entries.begin() + static_cast<std::ptrdiff_t>(adj_offsets[a + 1]));
  }

  const std::uint64_t asn_count = asns.size();
  const std::uint64_t link_count = rows.size();
  const std::uint64_t hybrid_count = snap.hybrids.size();
  const std::uint64_t off_asn = kV2HeaderBytes;
  const std::uint64_t off_adj_index = align8(off_asn + 4 * asn_count);
  const std::uint64_t off_adj = off_adj_index + 8 * (asn_count + 1);
  const std::uint64_t off_links = off_adj + 2 * kV2AdjEntryBytes * link_count;
  const std::uint64_t off_hybrids = align8(off_links + kV2LinkRowBytes * link_count);
  const std::uint64_t off_source = align8(off_hybrids + kV2HybridRowBytes * hybrid_count);
  const std::uint64_t file_size = off_source + snap.header.source.size() + 4;

  ByteWriter w;
  w.u32(kMagic);
  w.u32(2);
  w.u64(snap.header.timestamp);
  w.u64(file_size);
  w.u32(static_cast<std::uint32_t>(asn_count));
  w.u32(static_cast<std::uint32_t>(snap.header.source.size()));
  w.u64(link_count);
  w.u64(hybrid_count);
  w.u64(off_asn);
  w.u64(off_adj_index);
  w.u64(off_adj);
  w.u64(off_links);
  w.u64(off_hybrids);
  w.u64(off_source);
  encode_counters(w, snap);

  for (const Asn asn : asns) w.u32(asn);
  pad_to(w, off_adj_index);

  for (const std::uint64_t offset : adj_offsets) w.u64(offset);
  for (const auto& [neighbor, link_index] : adj_entries) {
    w.u32(neighbor);
    w.u32(link_index);
  }

  for (const auto& [key, row] : rows) {
    w.u32(key.first);
    w.u32(key.second);
    w.u8(row.rel_v4);
    w.u8(row.rel_v6);
    w.u8(row.flags);
    w.u8(0);
  }
  pad_to(w, off_hybrids);

  for (const auto& h : snap.hybrids) {
    w.u32(h.link.first);
    w.u32(h.link.second);
    w.u8(rel_byte(h.rel_v4));
    w.u8(rel_byte(h.rel_v6));
    w.u8(h.cls);
    w.u8(0);
    w.u64(h.v6_path_visibility);
  }
  pad_to(w, off_source);

  w.text(snap.header.source);
  w.u32(kTrailer);
  return w.take();
}

void Writer::write_file(const Snapshot& snap, const std::string& path) {
  OBS_SPAN("snapshot.write");
  const std::vector<std::uint8_t> bytes = encode(snap);
  obs::MetricsRegistry::global().counter("htor_snapshot_writes_total").inc();
  obs::MetricsRegistry::global().counter("htor_snapshot_write_bytes_total").inc(bytes.size());
  // Write to a sibling temp file, then rename over the target: a reader (or
  // a daemon holding an mmap of the old file) never observes a half-written
  // snapshot, and the old inode keeps serving existing views.
  // lint: allow(adhoc-atomic-counter) temp-name uniquifier for the
  // rename-into-place protocol, not telemetry — it must stay collision-free
  // even if the registry is reset
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  save_bytes(tmp, bytes);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw Error("cannot rename snapshot into place at '" + path + "'");
  }
}

}  // namespace htor::snapshot
