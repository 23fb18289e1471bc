#include "live/incremental_census.hpp"

#include <utility>

#include "core/snapshot_bridge.hpp"

namespace htor::live {

IncrementalCensus::IncrementalCensus(const mrt::ObservedRib& rib,
                                     rpsl::CommunityDictionary dict,
                                     core::InferenceConfig config, std::string source,
                                     std::uint32_t seed_timestamp)
    : dict_(std::move(dict)),
      config_(std::move(config)),
      source_(std::move(source)),
      seed_timestamp_(seed_timestamp) {
  rib_.seed(rib);
}

void IncrementalCensus::apply(std::uint32_t timestamp, const mrt::Bgp4mpMessage& msg) {
  ApplyDelta delta = rib_.apply(msg);  // throws before any mutation
  // Epoch churn: every entity a removed OR added route touches counts as
  // churned.  Set inserts are idempotent, so a route that flaps repeatedly
  // within one epoch still counts each entity once.
  for (const auto* routes : {&delta.removed, &delta.added}) {
    for (const auto& route : *routes) {
      churn_prefixes_.insert(route.prefix);
      const auto& path = route.as_path;
      churn_ases_.insert(path.begin(), path.end());
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] != path[i + 1]) churn_links_.emplace(path[i], path[i + 1]);
      }
    }
  }
  ++applied_;
  last_timestamp_ = timestamp;
}

EpochReport IncrementalCensus::recompute(ThreadPool& pool) const {
  EpochReport epoch;
  epoch.report = core::run_census(rib_.materialize(), dict_, config_, pool);
  epoch.applied = applied_;
  epoch.last_timestamp = applied_ == 0 ? seed_timestamp_ : last_timestamp_;
  epoch.snap = core::to_snapshot(epoch.report, source_, epoch.last_timestamp);
  epoch.churn_ases = churn_ases_.size();
  epoch.churn_prefixes = churn_prefixes_.size();
  epoch.churn_links = churn_links_.size();
  return epoch;
}

void IncrementalCensus::reset_epoch_churn() {
  churn_ases_.clear();
  churn_prefixes_.clear();
  churn_links_.clear();
}

}  // namespace htor::live
