#include "core/valley_census.hpp"

#include <span>
#include <unordered_map>

#include "core/parallel.hpp"
#include "topology/reachability.hpp"
#include "topology/valley.hpp"

namespace htor::core {

namespace {

/// Dense valley-free-reachability oracle over the links of a relationship
/// map, with per-source memoization (sources are the few vantage ASes).
class ReachOracle {
 public:
  explicit ReachOracle(const RelationshipMap& rels) {
    rels.for_each([this](const LinkKey& key, Relationship rel) {
      const std::uint32_t a = intern(key.first);
      const std::uint32_t b = intern(key.second);
      adj_[a].push_back({b, edge_kind(rel)});
      adj_[b].push_back({a, edge_kind(reverse(rel))});
    });
  }

  bool known(Asn asn) const { return index_.count(asn) != 0; }

  /// The BFS itself, memo-free — safe to call from pool workers for
  /// distinct sources.  `src` must be known().
  std::vector<std::int32_t> distances_from(Asn src) const {
    return valley_free_distances(adj_, index_.at(src));
  }

  /// Install a precomputed distance vector for `src`.
  void memoize(Asn src, std::vector<std::int32_t> distances) {
    cache_[index_.at(src)] = std::move(distances);
  }

  /// kUnreachable when src/dst unknown or no valley-free path.
  bool reachable(Asn src, Asn dst) {
    auto s = index_.find(src);
    auto d = index_.find(dst);
    if (s == index_.end() || d == index_.end()) return false;
    auto [it, inserted] = cache_.try_emplace(s->second);
    if (inserted) it->second = valley_free_distances(adj_, s->second);
    return it->second[d->second] != kUnreachable;
  }

 private:
  std::uint32_t intern(Asn asn) {
    auto [it, inserted] = index_.try_emplace(asn, static_cast<std::uint32_t>(adj_.size()));
    if (inserted) adj_.emplace_back();
    return it->second;
  }

  std::unordered_map<Asn, std::uint32_t> index_;
  AdjacencyList adj_;
  std::unordered_map<std::uint32_t, std::vector<std::int32_t>> cache_;
};

/// Per-path classification counters plus the endpoint pairs whose valleys
/// still need the (expensive) necessity test.
struct CensusShard {
  ValleyCensus counters;
  std::vector<std::pair<Asn, Asn>> necessity_candidates;
};

CensusShard classify_paths(const std::vector<std::span<const Asn>>& paths, std::size_t begin,
                           std::size_t end, const RelationshipMap& rels) {
  CensusShard shard;
  for (std::size_t i = begin; i < end; ++i) {
    const std::span<const Asn> path = paths[i];
    ++shard.counters.paths;
    const ValleyCheckResult check = check_valley_free(path, rels);
    switch (check.cls) {
      case PathPolicyClass::ValleyFree:
        ++shard.counters.valley_free;
        continue;
      case PathPolicyClass::Incomplete:
        ++shard.counters.incomplete;
        continue;
      case PathPolicyClass::Valley:
        break;
    }
    ++shard.counters.valley;
    if (check.unknown_links > 0) continue;  // endpoints typed, but gaps remain
    ++shard.counters.classified_valleys;
    shard.necessity_candidates.emplace_back(path.front(), path.back());
  }
  return shard;
}

}  // namespace

bool valley_is_necessary(Asn src, Asn dst, const RelationshipMap& rels) {
  ReachOracle oracle(rels);
  return !oracle.reachable(src, dst);
}

ValleyCensus census_valleys(const PathStore& paths, const RelationshipMap& rels,
                            ThreadPool& pool) {
  // Snapshot the distinct paths so shards can index them.
  std::vector<std::span<const Asn>> snapshot;
  snapshot.reserve(paths.unique_paths());
  paths.for_each([&snapshot](std::span<const Asn> path, std::uint64_t) {
    snapshot.push_back(path);
  });

  CensusShard merged = shard_map_reduce(
      pool, snapshot.size(),
      [&snapshot, &rels](const ShardRange& range) {
        return classify_paths(snapshot, range.begin, range.end, rels);
      },
      CensusShard{},
      [](CensusShard& acc, CensusShard&& shard) {
        acc.counters.paths += shard.counters.paths;
        acc.counters.valley_free += shard.counters.valley_free;
        acc.counters.valley += shard.counters.valley;
        acc.counters.incomplete += shard.counters.incomplete;
        acc.counters.classified_valleys += shard.counters.classified_valleys;
        acc.necessity_candidates.insert(acc.necessity_candidates.end(),
                                        shard.necessity_candidates.begin(),
                                        shard.necessity_candidates.end());
      });

  ValleyCensus census = merged.counters;

  // The necessity test is one BFS per distinct source (the few vantages).
  // Run each source's BFS as its own pool task, then evaluate sequentially.
  ReachOracle oracle(rels);
  std::vector<Asn> sources;
  std::unordered_map<Asn, std::size_t> seen;
  for (const auto& [src, dst] : merged.necessity_candidates) {
    (void)dst;
    if (oracle.known(src) && seen.try_emplace(src, sources.size()).second) {
      sources.push_back(src);
    }
  }
  std::vector<std::future<std::vector<std::int32_t>>> futures;
  futures.reserve(sources.size());
  for (Asn src : sources) {
    futures.push_back(pool.submit([&oracle, src] { return oracle.distances_from(src); }));
  }
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    try {
      oracle.memoize(sources[i], futures[i].get());
    } catch (...) {
      // Drain every future before unwinding — tasks reference the oracle.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  for (const auto& [src, dst] : merged.necessity_candidates) {
    if (!oracle.reachable(src, dst)) ++census.necessary_valleys;
  }
  return census;
}

}  // namespace htor::core
