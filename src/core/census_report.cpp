#include "core/census_report.hpp"

#include <unordered_set>

#include "obs/trace.hpp"

namespace htor::core {

namespace {

/// Distinct ASes and prefixes of the RIB.  Every AS on a path with two or
/// more distinct ASes is an endpoint of one of its links, so the link
/// endpoints plus each route's origin cover every hop without walking it.
void count_entities(const mrt::ObservedRib& rib, const std::vector<LinkKey>& v4_links,
                    const std::vector<LinkKey>& v6_links, CensusReport& report) {
  std::unordered_set<Prefix, PrefixHash> prefixes;
  std::unordered_set<Asn> ases;
  for (const auto& route : rib.routes()) {
    prefixes.insert(route.prefix);
    if (!route.as_path.empty()) ases.insert(route.as_path.back());
  }
  for (const auto* links : {&v4_links, &v6_links}) {
    for (const LinkKey& key : *links) {
      ases.insert(key.first);
      ases.insert(key.second);
    }
  }
  report.ases = ases.size();
  report.prefixes = prefixes.size();
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
    count_entities(rib, v4_links, v6_links, report);
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
