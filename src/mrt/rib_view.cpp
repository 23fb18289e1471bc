#include "mrt/rib_view.hpp"

#include <algorithm>
#include <future>
#include <map>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace htor::mrt {

void join_rib_record(const RibPrefixRecord& rib_rec, const PeerIndexTable& peers,
                     std::vector<ObservedRoute>& out) {
  for (const auto& entry : rib_rec.entries) {
    if (entry.peer_index >= peers.peers.size()) {
      throw DecodeError("RIB entry peer index " + std::to_string(entry.peer_index) +
                        " out of range");
    }
    ObservedRoute route;
    route.af = rib_rec.prefix.version();
    route.prefix = rib_rec.prefix;
    route.peer_asn = peers.peers[entry.peer_index].asn;
    route.as_path = entry.attrs.as_path.flatten();
    route.local_pref = entry.attrs.local_pref;
    route.communities = entry.attrs.communities;
    out.push_back(std::move(route));
  }
}

ObservedRib::ObservedRib(std::vector<ObservedRoute> routes) : routes_(std::move(routes)) {
  v4_count_ = static_cast<std::size_t>(std::count_if(
      routes_.begin(), routes_.end(), [](const auto& r) { return r.af == IpVersion::V4; }));
  v6_count_ = routes_.size() - v4_count_;
}

void ObservedRib::add(ObservedRoute route) {
  if (route.af == IpVersion::V4) {
    ++v4_count_;
  } else {
    ++v6_count_;
  }
  routes_.push_back(std::move(route));
}

void ObservedRib::append(std::vector<std::vector<ObservedRoute>> shards, ThreadPool& pool) {
  const std::size_t before = routes_.size();
  std::size_t total = before;
  for (const auto& shard : shards) total += shard.size();
  if (total > routes_.capacity()) {
    routes_.reserve(before == 0 ? total : std::max(total, 2 * routes_.capacity()));
  }
  // Growing within that capacity moves nothing, so shard s moves into its
  // slots on the pool while this thread constructs the slots of shard s + 1.
  std::vector<std::future<std::size_t>> v4_counts;
  v4_counts.reserve(shards.size());
  for (auto& shard : shards) {
    const std::size_t offset = routes_.size();
    routes_.resize(offset + shard.size());
    v4_counts.push_back(pool.submit([slots = routes_.data() + offset, &shard] {
      // Taken out of `shards`, so the emptied routes are freed in this task.
      std::vector<ObservedRoute> routes = std::move(shard);
      std::size_t v4 = 0;
      for (std::size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].af == IpVersion::V4) ++v4;
        slots[i] = std::move(routes[i]);
      }
      return v4;
    }));
  }
  // The tasks only move and free, which cannot throw.
  std::size_t v4 = 0;
  for (auto& count : v4_counts) v4 += count.get();
  v4_count_ += v4;
  v6_count_ += total - before - v4;
}

std::vector<ObservedRoute> ObservedRib::release() {
  v4_count_ = 0;
  v6_count_ = 0;
  return std::exchange(routes_, {});
}

std::vector<const ObservedRoute*> ObservedRib::routes_of(IpVersion af) const {
  std::vector<const ObservedRoute*> out;
  out.reserve(size_of(af));
  for (const auto& r : routes_) {
    if (r.af == af) out.push_back(&r);
  }
  return out;
}

std::size_t ObservedRib::size_of(IpVersion af) const {
  return af == IpVersion::V4 ? v4_count_ : v6_count_;
}

std::vector<Record> records_from_rib(const ObservedRib& rib, std::uint32_t collector_bgp_id,
                                     const std::string& view_name, std::uint32_t timestamp) {
  // Stable peer table: peers sorted by ASN.
  std::vector<Asn> peer_asns;
  for (const auto& route : rib.routes()) peer_asns.push_back(route.peer_asn);
  std::sort(peer_asns.begin(), peer_asns.end());
  peer_asns.erase(std::unique(peer_asns.begin(), peer_asns.end()), peer_asns.end());

  // The PEER_INDEX_TABLE peer count and the per-entry peer index are both
  // 16-bit fields (RFC 6396 §4.3): a RIB with more vantage peers than that
  // is unrepresentable in TABLE_DUMP_V2, not truncatable.
  constexpr std::size_t kMaxPeers = 65535;
  if (peer_asns.size() > kMaxPeers) {
    throw InvalidArgument("RIB has " + std::to_string(peer_asns.size()) +
                          " distinct peers; TABLE_DUMP_V2 peer indexes are 16-bit (max " +
                          std::to_string(kMaxPeers) + ")");
  }

  PeerIndexTable pit;
  pit.collector_bgp_id = collector_bgp_id;
  pit.view_name = view_name;
  std::unordered_map<Asn, std::uint16_t> peer_index;
  for (Asn asn : peer_asns) {
    PeerEntry entry;
    entry.asn = asn;
    entry.bgp_id = 0xc0000000u | asn;  // synthetic router id
    entry.address = IpAddress::v4(0x0a000000u | (asn & 0x00ffffffu));
    peer_index.emplace(asn, static_cast<std::uint16_t>(pit.peers.size()));
    pit.peers.push_back(std::move(entry));
  }

  // Group routes by prefix, deterministically ordered.
  std::map<Prefix, std::vector<const ObservedRoute*>> by_prefix;
  for (const auto& route : rib.routes()) by_prefix[route.prefix].push_back(&route);

  std::vector<Record> records;
  records.reserve(by_prefix.size() + 1);
  records.push_back(Record{timestamp, pit});

  std::uint32_t sequence = 0;
  for (const auto& [prefix, routes] : by_prefix) {
    RibPrefixRecord rec;
    rec.sequence = sequence++;
    rec.prefix = prefix;
    for (const ObservedRoute* route : routes) {
      RibEntry entry;
      entry.peer_index = peer_index.at(route->peer_asn);
      entry.originated_time = timestamp;
      entry.attrs.origin = bgp::Origin::Igp;
      entry.attrs.as_path = bgp::AsPath::sequence(route->as_path);
      entry.attrs.local_pref = route->local_pref;
      entry.attrs.communities = route->communities;
      if (prefix.version() == IpVersion::V4) {
        entry.attrs.next_hop = IpAddress::v4(0x0a000000u | (route->peer_asn & 0x00ffffffu));
      } else {
        bgp::MpReachNlri mp;
        mp.afi = bgp::Afi::Ipv6;
        mp.safi = bgp::Safi::Unicast;
        std::array<std::uint8_t, 16> nh{};
        nh[0] = 0x20;
        nh[1] = 0x01;
        nh[2] = 0x0d;
        nh[3] = 0xb8;
        nh[12] = static_cast<std::uint8_t>(route->peer_asn >> 24);
        nh[13] = static_cast<std::uint8_t>(route->peer_asn >> 16);
        nh[14] = static_cast<std::uint8_t>(route->peer_asn >> 8);
        nh[15] = static_cast<std::uint8_t>(route->peer_asn);
        mp.next_hops = {IpAddress::v6(nh)};
        // NLRI lives in the RIB record header (abbreviated MRT form).
        entry.attrs.mp_reach = std::move(mp);
      }
      rec.entries.push_back(std::move(entry));
    }
    records.push_back(Record{timestamp, std::move(rec)});
  }
  return records;
}

}  // namespace htor::mrt
