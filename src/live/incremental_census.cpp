#include "live/incremental_census.hpp"

#include <algorithm>
#include <utility>

#include "core/community_inference.hpp"
#include "core/snapshot_bridge.hpp"
#include "topology/valley.hpp"

namespace htor::live {

namespace {

// Mirrors the P2C/C2P/P2P/S2S vote-slot order of core/community_inference.cpp
// — the live tally must agree with tally_community_votes bit for bit.
Relationship rel_from_index(std::size_t i) {
  switch (i) {
    case 0: return Relationship::P2C;
    case 1: return Relationship::C2P;
    case 2: return Relationship::P2P;
    case 3: return Relationship::S2S;
    default: return Relationship::Unknown;
  }
}

/// Distinct canonical links of one path, adjacent prepends skipped —
/// the same link set PathStore::links() derives from the path.
std::vector<LinkKey> path_links(const std::vector<Asn>& path) {
  std::vector<LinkKey> out;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] == path[i + 1]) continue;
    LinkKey key(path[i], path[i + 1]);
    if (std::find(out.begin(), out.end(), key) == out.end()) out.push_back(key);
  }
  return out;
}

/// The batch tally rule for one vote histogram: majority winner, with ties
/// and sub-threshold counts landing in "conflicted".  Must match
/// core::tally_community_votes exactly.
struct TallyOutcome {
  Relationship rel = Relationship::Unknown;
  bool conflicted = false;
  bool any_votes = false;
};

TallyOutcome tally(const std::array<std::uint32_t, 4>& vote,
                   const core::CommunityInferenceParams& params) {
  TallyOutcome out;
  std::uint64_t total = 0;
  std::size_t best = 0;
  std::size_t with_max = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    total += vote[i];
    if (vote[i] > vote[best]) best = i;
  }
  if (total == 0) return out;
  out.any_votes = true;
  for (std::size_t i = 0; i < 4; ++i) {
    if (vote[i] == vote[best]) ++with_max;
  }
  if (with_max > 1 || vote[best] < params.min_votes ||
      static_cast<double>(vote[best]) < params.majority * static_cast<double>(total)) {
    out.conflicted = true;
    return out;
  }
  out.rel = rel_from_index(best);
  return out;
}

}  // namespace

bool IncrementalCensus::LinkState::has_votes() const {
  for (std::uint32_t v : votes_v4) {
    if (v != 0) return true;
  }
  for (std::uint32_t v : votes_v6) {
    if (v != 0) return true;
  }
  return false;
}

bool IncrementalCensus::LinkState::dead() const {
  return paths_v4 == 0 && paths_v6 == 0 && !has_votes();
}

IncrementalCensus::IncrementalCensus(const mrt::ObservedRib& rib,
                                     rpsl::CommunityDictionary dict,
                                     core::InferenceConfig config, std::string source,
                                     std::uint32_t seed_timestamp)
    : dict_(std::move(dict)),
      config_(std::move(config)),
      source_(std::move(source)),
      seed_timestamp_(seed_timestamp) {
  rib_.seed(rib);
  // Fold the *table* (post last-wins dedup), not the input vector: the live
  // tier must describe what the RIB holds, and seed() may have collapsed
  // duplicate (family, prefix, peer) rows.
  rib_.for_each([this](const mrt::ObservedRoute& route) { add_route(route); });
  stats_.routes = rib_.size();
}

void IncrementalCensus::apply(std::uint32_t timestamp, const mrt::Bgp4mpMessage& msg) {
  ApplyDelta delta = rib_.apply(msg);  // throws before any mutation
  for (const auto& route : delta.removed) remove_route(route);
  for (const auto& route : delta.added) add_route(route);
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
  stats_.routes = rib_.size();
}

void IncrementalCensus::add_route(const mrt::ObservedRoute& route) {
  const bool v4 = route.af == IpVersion::V4;
  if (route.as_path.size() >= 2) {  // PathStore ignores shorter paths
    auto& paths = v4 ? paths_v4_ : paths_v6_;
    if (++paths[route.as_path] == 1) {
      (v4 ? stats_.v4_paths : stats_.v6_paths)++;
      for (const LinkKey& key : path_links(route.as_path)) {
        LinkState& state = links_[key];
        std::uint64_t& refs = v4 ? state.paths_v4 : state.paths_v6;
        if (++refs == 1) {
          (v4 ? stats_.v4_links : stats_.v6_links)++;
          if ((v4 ? state.paths_v6 : state.paths_v4) > 0) stats_.dual_links++;
        }
        update_derived(key, state);
      }
    }
    classify_route(route);
  }
  apply_votes(route, +1);
}

void IncrementalCensus::remove_route(const mrt::ObservedRoute& route) {
  const bool v4 = route.af == IpVersion::V4;
  if (route.as_path.size() >= 2) {
    auto& paths = v4 ? paths_v4_ : paths_v6_;
    auto it = paths.find(route.as_path);
    if (it != paths.end() && --it->second == 0) {
      paths.erase(it);
      (v4 ? stats_.v4_paths : stats_.v6_paths)--;
      for (const LinkKey& key : path_links(route.as_path)) {
        auto link_it = links_.find(key);
        if (link_it == links_.end()) continue;
        LinkState& state = link_it->second;
        std::uint64_t& refs = v4 ? state.paths_v4 : state.paths_v6;
        if (refs > 0 && --refs == 0) {
          (v4 ? stats_.v4_links : stats_.v6_links)--;
          if ((v4 ? state.paths_v6 : state.paths_v4) > 0) stats_.dual_links--;
        }
        update_derived(key, state);
        if (state.dead()) links_.erase(link_it);
      }
    }
  }
  apply_votes(route, -1);
}

void IncrementalCensus::apply_votes(const mrt::ObservedRoute& route, int sign) {
  const std::vector<const mrt::ObservedRoute*> one{&route};
  const core::CommunityVotes votes = core::scan_community_votes(one, 0, 1, dict_);
  if (votes.votes.empty()) return;
  // The scan is a pure function of the route, so the histogram subtracted at
  // withdraw time is exactly the one added at announce time — retraction is
  // exact, never approximate.
  const bool v4 = route.af == IpVersion::V4;
  if (sign > 0) {
    stats_.total_votes += votes.total_votes;
  } else {
    stats_.total_votes -= votes.total_votes;
  }
  for (const auto& [key, vote] : votes.votes) {
    LinkState& state = links_[key];
    auto& slots = v4 ? state.votes_v4 : state.votes_v6;
    for (std::size_t i = 0; i < 4; ++i) {
      if (sign > 0) {
        slots[i] += vote[i];
      } else {
        slots[i] -= vote[i];
      }
    }
    retally(key, state);
    auto it = links_.find(key);
    if (it != links_.end() && it->second.dead()) links_.erase(it);
  }
}

void IncrementalCensus::retally(const LinkKey& key, LinkState& state) {
  const auto& params = config_.community;
  const TallyOutcome v4 = tally(state.votes_v4, params);
  const TallyOutcome v6 = tally(state.votes_v6, params);

  // Diff old state -> new outcome, keeping every aggregate exact.
  const bool had_votes_v4 = state.rel_v4 != Relationship::Unknown || state.conflicted_v4;
  const bool had_votes_v6 = state.rel_v6 != Relationship::Unknown || state.conflicted_v6;
  if (v4.any_votes != had_votes_v4) stats_.links_with_votes_v4 += v4.any_votes ? 1 : -1;
  if (v6.any_votes != had_votes_v6) stats_.links_with_votes_v6 += v6.any_votes ? 1 : -1;

  if ((v4.rel != Relationship::Unknown) != (state.rel_v4 != Relationship::Unknown)) {
    stats_.typed_links_v4 += v4.rel != Relationship::Unknown ? 1 : -1;
  }
  if ((v6.rel != Relationship::Unknown) != (state.rel_v6 != Relationship::Unknown)) {
    stats_.typed_links_v6 += v6.rel != Relationship::Unknown ? 1 : -1;
  }
  if (v4.conflicted != state.conflicted_v4) stats_.conflicted_links_v4 += v4.conflicted ? 1 : -1;
  if (v6.conflicted != state.conflicted_v6) stats_.conflicted_links_v6 += v6.conflicted ? 1 : -1;

  if (v4.rel != state.rel_v4) {
    if (v4.rel == Relationship::Unknown) {
      rels_v4_.erase(key.first, key.second);
    } else {
      rels_v4_.set(key.first, key.second, v4.rel);
    }
    state.rel_v4 = v4.rel;
  }
  if (v6.rel != state.rel_v6) {
    if (v6.rel == Relationship::Unknown) {
      rels_v6_.erase(key.first, key.second);
    } else {
      rels_v6_.set(key.first, key.second, v6.rel);
    }
    state.rel_v6 = v6.rel;
  }
  state.conflicted_v4 = v4.conflicted;
  state.conflicted_v6 = v6.conflicted;

  update_derived(key, state);
}

void IncrementalCensus::update_derived(const LinkKey& key, LinkState& state) {
  (void)key;
  const bool hybrid = state.paths_v4 > 0 && state.paths_v6 > 0 &&
                      state.rel_v4 != Relationship::Unknown &&
                      state.rel_v6 != Relationship::Unknown && state.rel_v4 != state.rel_v6;
  if (hybrid != state.hybrid) {
    stats_.hybrid_links += hybrid ? 1 : -1;
    state.hybrid = hybrid;
  }
}

void IncrementalCensus::classify_route(const mrt::ObservedRoute& route) {
  const RelationshipMap& rels = route.af == IpVersion::V4 ? rels_v4_ : rels_v6_;
  switch (check_valley_free(route.as_path, rels).cls) {
    case PathPolicyClass::ValleyFree: stats_.valley_free_seen++; break;
    case PathPolicyClass::Valley: stats_.valleys_seen++; break;
    case PathPolicyClass::Incomplete: stats_.incomplete_seen++; break;
  }
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
