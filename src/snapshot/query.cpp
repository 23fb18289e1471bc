#include "snapshot/query.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot/writer.hpp"
#include "util/bytes.hpp"
#include "util/mmap_file.hpp"

namespace htor::snapshot {

namespace {

/// Count one open attempt; failures (missing file, validate_v2 rejection)
/// bump the failure counter before the exception continues to the caller —
/// the daemon's reload counters stay, this is the layer below.
struct OpenScope {
  bool ok = false;

  explicit OpenScope(const char* mode) : mode_(mode) {}
  ~OpenScope() {
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("htor_snapshot_opens_total", {{"mode", mode_}}).inc();
    if (!ok) registry.counter("htor_snapshot_open_failures_total", {{"mode", mode_}}).inc();
  }

 private:
  const char* mode_;
};

}  // namespace

QueryIndex::QueryIndex(std::shared_ptr<const MappedSnapshot> image) : image_(std::move(image)) {}

QueryIndex::QueryIndex(const Snapshot& snap)
    : QueryIndex(MappedSnapshot::from_bytes(Writer::encode(snap))) {}

QueryIndex QueryIndex::open(const std::string& path) {
  OBS_SPAN("snapshot.open");
  OpenScope scope("eager");
  QueryIndex index{MappedSnapshot::from_bytes(load_bytes(path))};
  scope.ok = true;
  return index;
}

QueryIndex QueryIndex::open_mapped(const std::string& path) {
  OBS_SPAN("snapshot.open");
  OpenScope scope("mapped");
  QueryIndex index{MappedSnapshot::from_map(MmapFile(path))};
  scope.ok = true;
  return index;
}

std::optional<QueryIndex::LinkInfo> QueryIndex::lookup(Asn a, Asn b) const {
  const auto index = view().find_link(a, b);
  if (!index) return std::nullopt;
  const V2View::LinkRow row = view().link_at(*index);
  LinkInfo info{row.rel_v4, row.rel_v6, row.hybrid};
  if (a > b) {
    // Stored orientation is first -> second; flip for the caller's view.
    info.rel_v4 = reverse(info.rel_v4);
    info.rel_v6 = reverse(info.rel_v6);
  }
  return info;
}

std::vector<QueryIndex::Neighbor> QueryIndex::neighbors(Asn asn) const {
  std::vector<Neighbor> out;
  const auto id = view().find_asn(asn);
  if (!id) return out;
  const auto [begin, end] = view().adj_range(*id);
  out.reserve(end - begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    const V2View::AdjEntry entry = view().adj_at(i);
    const V2View::LinkRow row = view().link_at(entry.link_index);
    Neighbor n;
    n.asn = view().asn_at(entry.neighbor_id);
    n.info = {row.rel_v4, row.rel_v6, row.hybrid};
    if (asn == row.second) {
      n.info.rel_v4 = reverse(n.info.rel_v4);
      n.info.rel_v6 = reverse(n.info.rel_v6);
    }
    out.push_back(n);
  }
  return out;
}

}  // namespace htor::snapshot
