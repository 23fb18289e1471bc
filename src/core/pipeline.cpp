#include "core/pipeline.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/parallel.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/trace.hpp"

namespace htor::core {

mrt::ObservedRib load_rib(const std::string& path, ThreadPool& pool) {
  return mrt::rib_from_stream(path, pool);
}

namespace {

/// Merge every shard future in order; on failure keep draining (the tasks
/// reference caller-owned route lists) and rethrow the first error.
CommunityVotes collect_votes(std::vector<std::future<CommunityVotes>>& futures,
                             std::exception_ptr& first_error) {
  CommunityVotes merged;
  for (auto& future : futures) {
    try {
      merged.merge(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  return merged;
}

/// Exact most-voted links from the merged tallies.  The order is total
/// (votes, then link), so unordered_map iteration order cannot leak in.
std::vector<VotedLink> top_voted_links(const CommunityVotes& v4, const CommunityVotes& v6) {
  std::unordered_map<LinkKey, std::uint64_t, LinkKeyHash> totals;
  for (const CommunityVotes* family : {&v4, &v6}) {
    for (const auto& [key, tallies] : family->votes) {
      for (const std::uint32_t n : tallies) totals[key] += n;
    }
  }
  std::vector<VotedLink> links;
  links.reserve(totals.size());
  for (const auto& [key, votes] : totals) {
    if (votes > 0) links.push_back({key, votes});
  }
  const std::size_t keep = std::min(links.size(), kTopVotedLinks);
  std::partial_sort(links.begin(), links.begin() + static_cast<std::ptrdiff_t>(keep),
                    links.end(), [](const VotedLink& a, const VotedLink& b) {
                      return a.votes != b.votes ? a.votes > b.votes : a.link < b.link;
                    });
  links.resize(keep);
  return links;
}

}  // namespace

InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config, ThreadPool& pool) {
  InferredRelationships out;
  const auto v4_routes = rib.routes_of(IpVersion::V4);
  const auto v6_routes = rib.routes_of(IpVersion::V6);

  // Phase 1: the per-route community scans of BOTH families are submitted
  // before either is collected, so their shards interleave on the pool.
  // Shard count is fixed (kCensusShards) and merges run in shard order, so
  // any --jobs value reproduces the same vote state bit for bit.
  auto submit_scans = [&pool, &dict](const std::vector<const mrt::ObservedRoute*>& routes) {
    std::vector<std::future<CommunityVotes>> futures;
    for (const ShardRange& range : shard_ranges(routes.size())) {
      futures.push_back(pool.submit([&routes, &dict, range] {
        return scan_community_votes(routes, range.begin, range.end, dict);
      }));
    }
    return futures;
  };
  std::exception_ptr first_error;
  {
    OBS_SPAN("census.infer.community");
    auto v4_futures = submit_scans(v4_routes);
    auto v6_futures = submit_scans(v6_routes);

    const CommunityVotes v4_votes = collect_votes(v4_futures, first_error);
    const CommunityVotes v6_votes = collect_votes(v6_futures, first_error);
    if (first_error) std::rethrow_exception(first_error);

    out.top_voted_links = top_voted_links(v4_votes, v6_votes);

    out.community_v4 = tally_community_votes(v4_votes, config.community);
    out.community_v6 = tally_community_votes(v6_votes, config.community);
    out.v4 = out.community_v4.rels;
    out.v6 = out.community_v6.rels;
  }

  // Phase 2: one Rosetta pass per family, two independent pool tasks (each
  // reads only its own family's routes and community map).
  if (config.use_rosetta) {
    OBS_SPAN("census.infer.rosetta");
    auto v4_rosetta = pool.submit(
        [&] { return run_rosetta(v4_routes, dict, out.v4, config.rosetta); });
    auto v6_rosetta = pool.submit(
        [&] { return run_rosetta(v6_routes, dict, out.v6, config.rosetta); });
    try {
      out.rosetta_v4 = v4_rosetta.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    try {
      out.rosetta_v6 = v6_rosetta.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    if (first_error) std::rethrow_exception(first_error);

    // Deterministic merge: Rosetta fills only links communities left
    // Unknown, applied v4 first, then v6.
    for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      auto& rels = af == IpVersion::V4 ? out.v4 : out.v6;
      const auto& rosetta = af == IpVersion::V4 ? out.rosetta_v4 : out.rosetta_v6;
      rosetta.first_hop_rels.for_each([&rels](const LinkKey& key, Relationship rel) {
        if (rels.get(key.first, key.second) == Relationship::Unknown) {
          rels.set(key.first, key.second, rel);
        }
      });
    }
  }
  return out;
}

PathStore paths_of(const mrt::ObservedRib& rib, IpVersion af, ThreadPool& pool) {
  const auto& routes = rib.routes();
  return PathStore(partitioned_map_reduce(
      pool, routes.size(),
      [&routes, af](const ShardRange& range) {
        std::vector<PathStore::Batch> batches(kCensusShards);
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const std::vector<Asn>& path = routes[i].as_path;
          if (routes[i].af != af || !PathStore::storable(path)) continue;
          const std::uint64_t hash = PathStore::hash(path);
          batches[partition_of(hash)].push(path, hash);
        }
        return batches;
      },
      [](const std::vector<PathStore::Batch>& column) {
        PathStore part;
        part.add_batches(column);
        return part;
      }));
}

CoverageStats coverage(const std::vector<LinkKey>& links, const RelationshipMap& rels) {
  CoverageStats stats;
  stats.observed_links = links.size();
  for (const LinkKey& key : links) {
    if (rels.get(key.first, key.second) != Relationship::Unknown) ++stats.covered_links;
  }
  return stats;
}

std::vector<LinkKey> dual_stack_links(const std::vector<LinkKey>& v4_links,
                                      const std::vector<LinkKey>& v6_links, ThreadPool& pool) {
  const std::unordered_set<LinkKey, LinkKeyHash> v4_set(v4_links.begin(), v4_links.end());
  const auto shards = shard_map(pool, v6_links.size(), [&](const ShardRange& range) {
    std::vector<LinkKey> hits;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      if (v4_set.count(v6_links[i])) hits.push_back(v6_links[i]);
    }
    return hits;
  });
  std::vector<LinkKey> out;
  for (const auto& shard : shards) out.insert(out.end(), shard.begin(), shard.end());
  return out;
}

}  // namespace htor::core
