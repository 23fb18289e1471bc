// One-call orchestration of the paper's whole measurement (§3): dataset
// statistics, inference coverage, hybrid detection, and the valley census.
// Consumes only what a real study would have — a collector RIB and an IRR
// dump's mined dictionary.
#pragma once

#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "core/valley_census.hpp"
#include "mrt/rib_view.hpp"
#include "rpsl/community_dict.hpp"

namespace htor::core {

struct CensusReport {
  // Dataset (paper §3 ¶1).
  std::uint64_t v6_paths = 0;        ///< distinct IPv6 AS paths
  std::uint64_t v4_paths = 0;
  std::size_t v6_links = 0;          ///< distinct IPv6 AS links observed
  std::size_t v4_links = 0;
  std::size_t dual_links = 0;        ///< links visible in both families
  std::size_t ases = 0;              ///< distinct ASes on any route
  std::size_t prefixes = 0;          ///< distinct prefixes, both families
  // Distinct links over both families: v4_links + v6_links - dual_links.

  // Inference & coverage (¶1); inferred.top_voted_links are the links the
  // community tags speak for most often.
  InferredRelationships inferred;
  CoverageStats v6_coverage;         ///< of all observed IPv6 links
  CoverageStats v4_coverage;
  CoverageStats dual_coverage;       ///< of dual-stack links (both maps known)

  // Hybrids (¶2-3).
  HybridReport hybrids;

  // Valley paths (¶4).
  ValleyCensus v6_valleys;
  ValleyCensus v4_valleys;

  // Path stores, kept for downstream experiments (Figure 2 ranking).
  PathStore v4_path_store;
  PathStore v6_path_store;
};

/// The whole census on `pool`.  The pool's size decides the parallelism;
/// every size gives a byte-identical report, and ThreadPool(1) runs inline.
CensusReport run_census(const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict,
                        const InferenceConfig& config, ThreadPool& pool);

}  // namespace htor::core
