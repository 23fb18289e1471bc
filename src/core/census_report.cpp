#include "core/census_report.hpp"

#include <optional>
#include <unordered_set>
#include <utility>

#include "core/parallel.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace htor::core {

namespace {

/// Distinct ASes and prefixes of the RIB.  Every AS on a path with two or
/// more distinct ASes is an endpoint of one of its links, so the link
/// endpoints plus each route's origin cover every hop without walking it.
/// The keys reduce by hash partition: route shards bucket their prefixes
/// and origins, and each partition counts its distinct keys, its link
/// endpoints among them, as a pool task.  A key never leaves its partition,
/// so the partition counts add.
void count_entities(const mrt::ObservedRib& rib, const std::vector<LinkKey>& v4_links,
                    const std::vector<LinkKey>& v6_links, CensusReport& report,
                    ThreadPool& pool) {
  const auto as_partition = [](Asn asn) { return partition_of(splitmix64(asn)); };
  std::vector<std::vector<Asn>> endpoints(kCensusShards);
  for (const auto* links : {&v4_links, &v6_links}) {
    for (std::size_t i = 0; i < links->size(); ++i) {
      const LinkKey& key = (*links)[i];
      // Sorted links: a first endpoint's links are adjacent.
      if (i == 0 || (*links)[i - 1].first != key.first) {
        endpoints[as_partition(key.first)].push_back(key.first);
      }
      endpoints[as_partition(key.second)].push_back(key.second);
    }
  }

  struct Keys {
    std::vector<Prefix> prefixes;
    std::vector<Asn> origins;
  };
  const auto& routes = rib.routes();
  const auto counts = partitioned_map_reduce(
      pool, routes.size(),
      [&routes, &as_partition](const ShardRange& range) {
        std::vector<Keys> buckets(kCensusShards);
        // A dump lists a prefix's routes together, mostly from one origin:
        // a repeat of the key before is dropped here, not in the fold.
        std::optional<Asn> last_origin;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const mrt::ObservedRoute& route = routes[i];
          if (i == range.begin || route.prefix != routes[i - 1].prefix) {
            buckets[partition_of(splitmix64(PrefixHash{}(route.prefix)))].prefixes.push_back(
                route.prefix);
          }
          if (!route.as_path.empty() && route.origin_asn() != last_origin) {
            last_origin = route.origin_asn();
            buckets[as_partition(*last_origin)].origins.push_back(*last_origin);
          }
        }
        return buckets;
      },
      [&endpoints](std::size_t partition, const std::vector<Keys>& column) {
        std::unordered_set<Prefix, PrefixHash> prefixes;
        std::unordered_set<Asn> ases(endpoints[partition].begin(), endpoints[partition].end());
        for (const Keys& shard : column) {
          prefixes.insert(shard.prefixes.begin(), shard.prefixes.end());
          ases.insert(shard.origins.begin(), shard.origins.end());
        }
        return std::pair{ases.size(), prefixes.size()};
      });
  report.ases = 0;
  report.prefixes = 0;
  for (const auto& [ases, prefixes] : counts) {
    report.ases += ases;
    report.prefixes += prefixes;
  }
}

}  // namespace

CensusReport run_census(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                        const InferenceConfig& config, ThreadPool& pool) {
  OBS_SPAN("census");
  CensusReport report;

  std::vector<LinkKey> v4_links;
  std::vector<LinkKey> v6_links;
  std::vector<LinkKey> duals;
  {
    OBS_SPAN("census.paths");
    report.v4_path_store = paths_of(rib, IpVersion::V4, pool);
    report.v6_path_store = paths_of(rib, IpVersion::V6, pool);
    report.v4_paths = report.v4_path_store.unique_paths();
    report.v6_paths = report.v6_path_store.unique_paths();
    v4_links = report.v4_path_store.links();
    v6_links = report.v6_path_store.links();
  }
  {
    OBS_SPAN("census.duals");
    duals = dual_stack_links(v4_links, v6_links, pool);
  }
  report.v4_links = v4_links.size();
  report.v6_links = v6_links.size();
  report.dual_links = duals.size();
  {
    OBS_SPAN("census.entities");
    count_entities(rib, v4_links, v6_links, report, pool);
  }

  {
    OBS_SPAN("census.infer");
    report.inferred = infer_relationships(rib, dict, config, pool);
  }
  {
    OBS_SPAN("census.coverage");
    report.v4_coverage = coverage(v4_links, report.inferred.v4);
    report.v6_coverage = coverage(v6_links, report.inferred.v6);

    // Dual coverage in the paper's sense: both the IPv4 and the IPv6
    // relationship of the link are known.
    report.dual_coverage.observed_links = duals.size();
    for (const LinkKey& key : duals) {
      if (report.inferred.v4.get(key.first, key.second) != Relationship::Unknown &&
          report.inferred.v6.get(key.first, key.second) != Relationship::Unknown) {
        ++report.dual_coverage.covered_links;
      }
    }
  }

  {
    OBS_SPAN("census.hybrids");
    // Tier attribution from the richer (IPv4) inferred map.
    const auto tiers = classify_tiers(report.inferred.v4);
    report.hybrids = detect_hybrids(duals, report.inferred.v4, report.inferred.v6,
                                    report.v6_path_store, &tiers);
  }

  {
    OBS_SPAN("census.valleys");
    report.v6_valleys = census_valleys(report.v6_path_store, report.inferred.v6, pool);
    report.v4_valleys = census_valleys(report.v4_path_store, report.inferred.v4, pool);
  }
  return report;
}

}  // namespace htor::core
