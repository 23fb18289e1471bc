// Analysis-level view of a collector RIB: one ObservedRoute per
// (vantage peer, prefix), with the attributes the paper's method consumes —
// the AS path, the communities, and the peer's LocPrf when it exports one.
//
// join_rib_record() is the PEER_INDEX_TABLE join that turns one TABLE_DUMP_V2
// RIB record into observed routes (rib_from_stream() in stream_reader.hpp
// runs it over a whole dump); records_from_rib() is the inverse and is what
// the synthetic collector uses to emit dumps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mrt/record.hpp"
#include "util/thread_pool.hpp"

namespace htor::mrt {

struct ObservedRoute {
  IpVersion af = IpVersion::V4;
  Prefix prefix;
  Asn peer_asn = 0;  ///< the collector's vantage peer
  std::vector<Asn> as_path;  ///< [peer … origin], prepends preserved
  std::optional<std::uint32_t> local_pref;
  std::vector<bgp::Community> communities;

  Asn origin_asn() const { return as_path.empty() ? 0 : as_path.back(); }

  friend bool operator==(const ObservedRoute&, const ObservedRoute&) = default;
};

class ObservedRib {
 public:
  void add(ObservedRoute route);

  /// Append decoded shards, shard 0's routes first.  The table grows once
  /// (exactly on the first append, geometrically after), then every shard
  /// moves into its own slots as a pool task that also frees the shard.
  /// The result is the same as add()ing every route in order, at any pool
  /// size.
  void append(std::vector<std::vector<ObservedRoute>> shards, ThreadPool& pool);

  const std::vector<ObservedRoute>& routes() const { return routes_; }

  /// Routes of one family, by reference into routes().
  std::vector<const ObservedRoute*> routes_of(IpVersion af) const;

  std::size_t size() const { return routes_.size(); }
  std::size_t size_of(IpVersion af) const;

 private:
  std::vector<ObservedRoute> routes_;
  std::size_t v4_count_ = 0;
  std::size_t v6_count_ = 0;
};

/// Join one RIB record's entries against its governing peer table, appending
/// one ObservedRoute per entry (in entry order).  Throws DecodeError when an
/// entry's peer index is out of range.  AS_SETs are flattened into the path.
void join_rib_record(const RibPrefixRecord& rib_rec, const PeerIndexTable& peers,
                     std::vector<ObservedRoute>& out);

/// Serialize an observed RIB back to MRT TABLE_DUMP_V2 records (one
/// PEER_INDEX_TABLE followed by one RIB record per prefix, entries grouped).
/// Routes are grouped per family; `timestamp` stamps every record.  Throws
/// InvalidArgument when the RIB has more distinct peers than the format's
/// 16-bit peer index can address (65535).
std::vector<Record> records_from_rib(const ObservedRib& rib, std::uint32_t collector_bgp_id,
                                     const std::string& view_name, std::uint32_t timestamp);

}  // namespace htor::mrt
