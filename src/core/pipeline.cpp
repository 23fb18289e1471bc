#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "core/parallel.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace htor::core {

mrt::ObservedRib load_rib(const std::string& path, ThreadPool& pool) {
  return mrt::rib_from_stream(path, pool);
}

namespace {

/// Index of a family in the per-family arrays below.
std::size_t family(IpVersion af) { return af == IpVersion::V4 ? 0 : 1; }

/// The partition a link's votes reduce in.
std::size_t link_partition(const LinkKey& link) {
  return partition_of(splitmix64(static_cast<std::uint64_t>(link.first) << 32 | link.second));
}

/// One route shard's votes in one partition, per family: each voted link
/// with its tallies (indexed P2C/C2P/P2P/S2S), and the tagged routes whose
/// first vote falls in the partition.
struct VoteBucket {
  std::array<std::vector<std::pair<LinkKey, std::array<std::uint32_t, 4>>>, 2> links;
  std::array<std::uint64_t, 2> tagged_routes{};
};

/// One partition's tally, per family, and its most-voted links.
struct PartitionTally {
  std::array<CommunityInferenceResult, 2> families;  ///< the counts; rels stay empty
  std::array<std::vector<std::pair<LinkKey, Relationship>>, 2> typed;  ///< the rels
  std::vector<VotedLink> top;
};

/// Cut `links` to the kTopVotedLinks with the most votes.  The order is
/// total (votes descending, then link), so hash iteration order cannot
/// leak in.
void keep_top_voted(std::vector<VotedLink>& links) {
  const std::size_t keep = std::min(links.size(), kTopVotedLinks);
  std::partial_sort(links.begin(), links.begin() + static_cast<std::ptrdiff_t>(keep),
                    links.end(), [](const VotedLink& a, const VotedLink& b) {
                      return a.votes != b.votes ? a.votes > b.votes : a.link < b.link;
                    });
  links.resize(keep);
}

/// Merge one partition's votes over the shards, tally each family, and keep
/// the partition's most-voted links (both families summed).  A link's votes
/// all land in one partition, so every global top link is among its
/// partition's top links.
PartitionTally tally_partition(const std::vector<VoteBucket>& column,
                               const CommunityInferenceParams& params) {
  std::array<CommunityVotes, 2> merged;
  for (const VoteBucket& shard : column) {
    for (std::size_t f = 0; f < merged.size(); ++f) {
      merged[f].tagged_routes += shard.tagged_routes[f];
      for (const auto& [key, tallies] : shard.links[f]) {
        auto& mine = merged[f].votes[key];
        for (std::size_t i = 0; i < mine.size(); ++i) {
          mine[i] += tallies[i];
          merged[f].total_votes += tallies[i];
        }
      }
    }
  }
  PartitionTally tally;
  std::unordered_map<LinkKey, std::uint64_t, LinkKeyHash> totals;
  for (std::size_t f = 0; f < merged.size(); ++f) {
    CommunityInferenceResult& counts = tally.families[f];
    counts.tagged_routes = merged[f].tagged_routes;
    counts.total_votes = merged[f].total_votes;
    counts.links_with_votes = merged[f].votes.size();
    for (const auto& [key, tallies] : merged[f].votes) {
      for (const std::uint32_t n : tallies) totals[key] += n;
      const Relationship rel = tally_link(tallies, params);
      if (rel == Relationship::Unknown) {
        ++counts.conflicted_links;
      } else {
        tally.typed[f].emplace_back(key, rel);
      }
    }
  }
  tally.top.reserve(totals.size());
  for (const auto& [key, votes] : totals) {
    if (votes > 0) tally.top.push_back({key, votes});
  }
  keep_top_voted(tally.top);
  return tally;
}

/// Add family `f` of one partition's tally to the whole family's.
void join_tally(CommunityInferenceResult& whole, const PartitionTally& part, std::size_t f) {
  whole.links_with_votes += part.families[f].links_with_votes;
  whole.conflicted_links += part.families[f].conflicted_links;
  whole.tagged_routes += part.families[f].tagged_routes;
  whole.total_votes += part.families[f].total_votes;
  for (const auto& [key, rel] : part.typed[f]) whole.rels.set(key.first, key.second, rel);
}

}  // namespace

InferredRelationships infer_relationships(const mrt::ObservedRib& rib,
                                          const rpsl::CommunityDictionary& dict,
                                          const InferenceConfig& config, ThreadPool& pool) {
  InferredRelationships out;
  const auto& routes = rib.routes();

  // Phase 1: the community scan, both families in one pass.  Each route
  // shard tallies its votes per link, then buckets the links by partition;
  // each partition merges, tallies and ranks its links as one pool task,
  // and the parts join in partition order.
  {
    OBS_SPAN("census.infer.community");
    const auto parts = partitioned_map_reduce(
        pool, routes.size(),
        [&routes, &dict](const ShardRange& range) {
          std::array<CommunityVotes, 2> shard;
          std::vector<VoteBucket> buckets(kCensusShards);
          std::vector<Asn> chain;
          std::vector<LinkVote> votes;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            route_votes(routes[i], dict, chain, votes);
            if (votes.empty()) continue;
            const std::size_t f = family(routes[i].af);
            ++buckets[link_partition(votes.front().link)].tagged_routes[f];
            for (const LinkVote& vote : votes) ++shard[f].votes[vote.link][vote.rel];
          }
          for (std::size_t f = 0; f < shard.size(); ++f) {
            for (const auto& [key, tallies] : shard[f].votes) {
              buckets[link_partition(key)].links[f].emplace_back(key, tallies);
            }
          }
          return buckets;
        },
        [&config](std::size_t, const std::vector<VoteBucket>& column) {
          return tally_partition(column, config.community);
        });
    for (const PartitionTally& part : parts) {
      join_tally(out.community_v4, part, 0);
      join_tally(out.community_v6, part, 1);
      out.top_voted_links.insert(out.top_voted_links.end(), part.top.begin(), part.top.end());
    }
    keep_top_voted(out.top_voted_links);
    out.v4 = out.community_v4.rels;
    out.v6 = out.community_v6.rels;
  }

  // Phase 2: Rosetta, both families in each pass.  The learning shards'
  // samples add; the translation is consolidated once per family on this
  // thread; the application shards fold first-wins in shard order, which is
  // route order.  Rosetta fills only links communities left Unknown.
  if (config.use_rosetta) {
    OBS_SPAN("census.infer.rosetta");
    const std::array<const RelationshipMap*, 2> known{&out.v4, &out.v6};
    const auto samples = shard_map(pool, routes.size(), [&](const ShardRange& range) {
      std::array<RosettaSamples, 2> shard;
      for (std::size_t i = range.begin; i < range.end; ++i) {
        const std::size_t f = family(routes[i].af);
        shard[f].learn(routes[i], dict, *known[f], config.rosetta);
      }
      return shard;
    });
    std::array<RosettaSamples, 2> merged;
    for (const auto& shard : samples) {
      for (std::size_t f = 0; f < merged.size(); ++f) merged[f].merge(shard[f]);
    }
    const std::array<RosettaTranslation, 2> translations{
        RosettaTranslation(merged[0], config.rosetta),
        RosettaTranslation(merged[1], config.rosetta)};

    const auto hits = shard_map(pool, routes.size(), [&](const ShardRange& range) {
      std::array<RosettaHits, 2> shard;
      for (std::size_t i = range.begin; i < range.end; ++i) {
        const std::size_t f = family(routes[i].af);
        shard[f].apply(routes[i], dict, *known[f], translations[f], config.rosetta);
      }
      return shard;
    });
    out.rosetta_v4 = rosetta_result(merged[0], translations[0]);
    out.rosetta_v6 = rosetta_result(merged[1], translations[1]);
    for (const auto& shard : hits) {
      shard[0].fold_into(out.rosetta_v4);
      shard[1].fold_into(out.rosetta_v6);
    }

    // Applied v4 first, then v6.
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
      [](std::size_t, const std::vector<PathStore::Batch>& column) {
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
  // Both vectors are sorted: each v6 shard finds its start in the v4 links
  // and walks the two in step.
  const auto shards = shard_map(pool, v6_links.size(), [&](const ShardRange& range) {
    std::vector<LinkKey> hits;
    auto v4 = std::lower_bound(v4_links.begin(), v4_links.end(), v6_links[range.begin]);
    for (std::size_t i = range.begin; i < range.end && v4 != v4_links.end(); ++i) {
      while (v4 != v4_links.end() && *v4 < v6_links[i]) ++v4;
      if (v4 != v4_links.end() && *v4 == v6_links[i]) hits.push_back(v6_links[i]);
    }
    return hits;
  });
  std::vector<LinkKey> out;
  for (const auto& shard : shards) out.insert(out.end(), shard.begin(), shard.end());
  return out;
}

}  // namespace htor::core
