// Tests for the parallel census subsystem: the thread pool itself, the
// deterministic shard planner, and — the property the whole design hangs on —
// that every pool-sharded pipeline stage gives the same result at one job
// and at several, and agrees with a reference built without the shard merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/census_report.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot_bridge.hpp"
#include "core/valley_census.hpp"
#include "gen/internet.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/writer.hpp"
#include "rpsl/object.hpp"
#include "snapshot/writer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace htor {
namespace {

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, InlineModeSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, RunsSubmittedTasksOnWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ExceptionsSurfaceAtGet) {
  for (std::size_t jobs : {1u, 3u}) {
    ThreadPool pool(jobs);
    auto future = pool.submit([]() -> int { throw Error("boom"); });
    EXPECT_THROW(future.get(), Error);
  }
}

TEST(ThreadPool, ZeroMeansHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.concurrency(), 1u);
}

// The pool's observability accessors: executed() counts completed tasks in
// both worker and inline modes, and after a blocking shard_map_reduce the
// queue has drained back to zero (every submitted shard was consumed — the
// htor_threadpool_queue_depth gauge reads 0 between requests).
TEST(ThreadPool, QueueDrainsToZeroAfterShardMapReduce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.executed(), 0u);

  std::vector<int> data(997);
  std::iota(data.begin(), data.end(), 1);
  const long total = core::shard_map_reduce(
      pool, data.size(),
      [&data](const core::ShardRange& r) {
        long sum = 0;
        for (std::size_t i = r.begin; i < r.end; ++i) sum += data[i];
        return sum;
      },
      0L, [](long& acc, long part) { acc += part; });

  EXPECT_EQ(total, 997L * 998 / 2);
  EXPECT_EQ(pool.queued(), 0u);
  // Every shard task ran on the pool (shard count = kCensusShards plan for
  // 997 items; at least one per worker, at most one per item).
  EXPECT_GE(pool.executed(), 4u);
  const auto after_reduce = pool.executed();

  auto f = pool.submit([] {});
  f.get();
  EXPECT_EQ(pool.executed(), after_reduce + 1);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPool, InlineModeCountsExecutedTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.executed(), 0u);
  pool.submit([] {}).get();
  pool.submit([] {}).get();
  EXPECT_EQ(pool.executed(), 2u);
  EXPECT_EQ(pool.queued(), 0u);
}

// ----------------------------------------------------------- shard planner

TEST(ShardRanges, CoversRangeExactlyOnceInOrder) {
  for (std::size_t n : {0u, 1u, 5u, 31u, 32u, 33u, 1000u}) {
    const auto ranges = core::shard_ranges(n);
    std::size_t expect_begin = 0;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].index, i);
      EXPECT_EQ(ranges[i].begin, expect_begin);
      EXPECT_LT(ranges[i].begin, ranges[i].end);
      expect_begin = ranges[i].end;
    }
    EXPECT_EQ(expect_begin, n);
    EXPECT_LE(ranges.size(), core::kCensusShards);
    if (n > 0) {
      EXPECT_EQ(ranges.size(), std::min(n, core::kCensusShards));
    }
  }
}

TEST(ShardRanges, PlanIsIndependentOfJobCount) {
  // The planner takes no thread count at all — document that by equality of
  // repeated plans.
  const auto a = core::shard_ranges(977);
  const auto b = core::shard_ranges(977);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(ShardMap, MergesInShardOrder) {
  ThreadPool pool(4);
  std::vector<int> data(250);
  std::iota(data.begin(), data.end(), 0);
  const auto shards = core::shard_map(pool, data.size(), [&data](const core::ShardRange& r) {
    return std::vector<int>(data.begin() + static_cast<long>(r.begin),
                            data.begin() + static_cast<long>(r.end));
  });
  std::vector<int> merged;
  for (const auto& shard : shards) merged.insert(merged.end(), shard.begin(), shard.end());
  EXPECT_EQ(merged, data);
}

TEST(ShardMap, PropagatesFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(core::shard_map(pool, 100,
                               [](const core::ShardRange& r) -> int {
                                 if (r.index == 3) throw Error("shard 3 failed");
                                 return 0;
                               }),
               Error);
}

// ---------------------------------------- jobs 1 == jobs N, and references

struct ParallelFixture : public ::testing::Test {
  static const gen::SyntheticInternet& net() {
    static const gen::SyntheticInternet instance =
        gen::SyntheticInternet::generate(gen::small_params(11));
    return instance;
  }
  static const mrt::ObservedRib& rib() {
    static const mrt::ObservedRib instance = net().collect();
    return instance;
  }
  static const rpsl::CommunityDictionary& dict() {
    static const rpsl::CommunityDictionary instance =
        rpsl::mine_dictionary(rpsl::parse_objects(net().irr_dump()));
    return instance;
  }
};

void expect_same_rels(const RelationshipMap& a, const RelationshipMap& b) {
  EXPECT_EQ(a.size(), b.size());
  a.for_each([&b](const LinkKey& key, Relationship rel) {
    EXPECT_EQ(rel, b.get(key.first, key.second))
        << "link AS" << key.first << "-AS" << key.second;
  });
}

TEST_F(ParallelFixture, RibJoinMatchesAcrossJobCounts) {
  mrt::MrtWriter writer;
  for (const auto& rec : mrt::records_from_rib(rib(), 1, "par", 0)) writer.write(rec);
  const auto bytes = writer.take();
  const auto records = mrt::read_all(bytes);

  ThreadPool inline_pool;
  const auto base = mrt::rib_from_records(records, inline_pool);
  ASSERT_EQ(base.size(), rib().size());
  ThreadPool pool(4);
  const auto sharded = mrt::rib_from_records(records, pool);
  EXPECT_EQ(sharded.size_of(IpVersion::V6), base.size_of(IpVersion::V6));
  // Route order must match exactly, not just the route set.
  EXPECT_EQ(sharded.routes(), base.routes());
}

/// The path table of one family computed without the table code: every
/// route path with two or more distinct ASes, verbatim, with its count, and
/// for every link the number of distinct paths containing it.
struct PathOracle {
  std::map<std::vector<Asn>, std::uint64_t> paths;
  std::map<LinkKey, std::uint64_t> link_paths;
  std::uint64_t occurrences = 0;
};

PathOracle path_oracle(const mrt::ObservedRib& rib, IpVersion af) {
  PathOracle oracle;
  for (const auto& route : rib.routes()) {
    const auto& path = route.as_path;
    if (route.af != af || std::set<Asn>(path.begin(), path.end()).size() < 2) continue;
    ++oracle.paths[path];
    ++oracle.occurrences;
  }
  for (const auto& [path, count] : oracle.paths) {
    std::set<LinkKey> links;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] != path[i + 1]) links.emplace(path[i], path[i + 1]);
    }
    for (const LinkKey& link : links) ++oracle.link_paths[link];
  }
  return oracle;
}

/// paths_of over `rib` equals the oracle at one job and at four: the same
/// paths and counts, the same sorted links, and the same distinct-path
/// count for every link.
void expect_paths_of_matches_oracle(const mrt::ObservedRib& rib) {
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const PathOracle oracle = path_oracle(rib, af);
    std::vector<LinkKey> oracle_links;
    for (const auto& [link, paths] : oracle.link_paths) oracle_links.push_back(link);
    for (std::size_t jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(af == IpVersion::V4 ? "v4" : "v6") + " jobs=" +
                   std::to_string(jobs));
      ThreadPool pool(jobs);
      const PathStore table = core::paths_of(rib, af, pool);
      EXPECT_EQ(table.unique_paths(), oracle.paths.size());
      EXPECT_EQ(table.total_occurrences(), oracle.occurrences);
      std::map<std::vector<Asn>, std::uint64_t> counts;
      table.for_each([&counts](std::span<const Asn> path, std::uint64_t count) {
        counts.emplace(std::vector<Asn>(path.begin(), path.end()), count);
      });
      EXPECT_EQ(counts, oracle.paths);
      EXPECT_EQ(table.links(), oracle_links);
      for (const auto& [link, paths] : oracle.link_paths) {
        EXPECT_EQ(table.paths_containing(link.first, link.second), paths)
            << "link AS" << link.first << "-AS" << link.second;
      }
    }
  }
}

/// 6000 routes over 320 base paths that share their first hops, drawn at
/// random over the whole route range, so exact duplicates fall into every
/// shard.  Some draws are changed: a prepended hop, a cut-off tail (a
/// prefix of another path, or a single AS), one AS prepended alone, or a
/// loop that repeats a link.
mrt::ObservedRib path_stress_rib() {
  std::vector<std::vector<Asn>> bases;
  for (Asn vantage = 1; vantage <= 8; ++vantage) {
    for (Asn transit = 100; transit < 110; ++transit) {
      for (Asn origin = 1000; origin < 1004; ++origin) {
        bases.push_back({vantage, transit, transit + 100, origin});
      }
    }
  }
  Rng rng(18);
  mrt::ObservedRib rib;
  for (std::size_t i = 0; i < 6000; ++i) {
    std::vector<Asn> path = bases[rng.index(bases.size())];
    switch (rng.index(6)) {
      case 0: {
        const std::size_t hop = rng.index(path.size());
        const Asn prepended = path[hop];
        path.insert(path.begin() + static_cast<std::ptrdiff_t>(hop), prepended);
        break;
      }
      case 1: path.resize(rng.index(path.size()) + 1); break;
      case 2: path.assign(3, path.front()); break;
      case 3: path.insert(path.end(), {path[0], path[1]}); break;
      default: break;
    }
    mrt::ObservedRoute route;
    route.af = i % 3 == 0 ? IpVersion::V6 : IpVersion::V4;
    route.peer_asn = path.front();
    route.as_path = std::move(path);
    rib.add(std::move(route));
  }
  rib.add(mrt::ObservedRoute{});  // an empty path
  return rib;
}

// The reference is brute force over the routes, outside the path table, so
// a bug in the table or in its partitioned build cannot hide on both sides.
TEST_F(ParallelFixture, PathsOfMatchesPlainLoop) { expect_paths_of_matches_oracle(rib()); }

TEST(PathsOf, MatchesPlainLoopOnDuplicatesAcrossEveryShard) {
  const mrt::ObservedRib rib = path_stress_rib();
  // Some path recurs in every shard of the route range.
  std::map<std::vector<Asn>, std::set<std::size_t>> shards_of;
  for (const core::ShardRange& range : core::shard_ranges(rib.size())) {
    for (std::size_t i = range.begin; i < range.end; ++i) {
      shards_of[rib.routes()[i].as_path].insert(range.index);
    }
  }
  std::size_t widest = 0;
  for (const auto& [path, shards] : shards_of) widest = std::max(widest, shards.size());
  ASSERT_EQ(widest, core::kCensusShards);
  expect_paths_of_matches_oracle(rib);
}

TEST(PathsOf, EmptyRibGivesAnEmptyTable) { expect_paths_of_matches_oracle(mrt::ObservedRib{}); }

// links() is sorted, so the dual links (kept in v6 link order) must equal
// the plain sorted-range intersection.
TEST_F(ParallelFixture, DualStackLinksMatchesSetIntersection) {
  ThreadPool inline_pool;
  const auto v4 = core::paths_of(rib(), IpVersion::V4, inline_pool).links();
  const auto v6 = core::paths_of(rib(), IpVersion::V6, inline_pool).links();
  std::vector<LinkKey> reference;
  std::set_intersection(v4.begin(), v4.end(), v6.begin(), v6.end(),
                        std::back_inserter(reference));
  ASSERT_FALSE(reference.empty());
  for (std::size_t jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(core::dual_stack_links(v4, v6, pool), reference) << "jobs=" << jobs;
  }
}

// infer_relationships shards its community scan; infer_from_communities is
// one unsharded scan plus the tally.  Same votes, same outcome.
TEST_F(ParallelFixture, CommunityInferenceMatchesSingleScan) {
  const auto reference = core::infer_from_communities(rib().routes_of(IpVersion::V6), dict());
  for (std::size_t jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    const auto sharded = core::infer_relationships(rib(), dict(), {}, pool).community_v6;
    EXPECT_EQ(sharded.links_with_votes, reference.links_with_votes);
    EXPECT_EQ(sharded.conflicted_links, reference.conflicted_links);
    EXPECT_EQ(sharded.tagged_routes, reference.tagged_routes);
    EXPECT_EQ(sharded.total_votes, reference.total_votes);
    expect_same_rels(sharded.rels, reference.rels);
  }
}

TEST_F(ParallelFixture, InferRelationshipsMatchesAcrossJobCounts) {
  ThreadPool inline_pool;
  const auto base = core::infer_relationships(rib(), dict(), {}, inline_pool);
  ThreadPool pool(4);
  const auto sharded = core::infer_relationships(rib(), dict(), {}, pool);

  expect_same_rels(sharded.v4, base.v4);
  expect_same_rels(sharded.v6, base.v6);
  EXPECT_EQ(sharded.rosetta_v6.values_learned, base.rosetta_v6.values_learned);
  EXPECT_EQ(sharded.rosetta_v6.routes_resolved, base.rosetta_v6.routes_resolved);
}

TEST_F(ParallelFixture, ValleyCensusMatchesAcrossJobCounts) {
  ThreadPool inline_pool;
  const auto paths = core::paths_of(rib(), IpVersion::V6, inline_pool);
  const auto inferred = core::infer_relationships(rib(), dict(), {}, inline_pool);
  const auto base = core::census_valleys(paths, inferred.v6, inline_pool);
  EXPECT_GT(base.valley, 0u);
  ThreadPool pool(4);
  const auto sharded = core::census_valleys(paths, inferred.v6, pool);
  EXPECT_EQ(sharded.paths, base.paths);
  EXPECT_EQ(sharded.valley_free, base.valley_free);
  EXPECT_EQ(sharded.valley, base.valley);
  EXPECT_EQ(sharded.incomplete, base.incomplete);
  EXPECT_EQ(sharded.classified_valleys, base.classified_valleys);
  EXPECT_EQ(sharded.necessary_valleys, base.necessary_valleys);
}

TEST_F(ParallelFixture, FullCensusMatchesAcrossJobCounts) {
  ThreadPool inline_pool;
  const auto base = core::run_census(rib(), dict(), {}, inline_pool);
  for (std::size_t jobs : {4u, 8u}) {
    ThreadPool pool(jobs);
    const auto report = core::run_census(rib(), dict(), {}, pool);
    EXPECT_EQ(report.v6_paths, base.v6_paths);
    EXPECT_EQ(report.v4_paths, base.v4_paths);
    EXPECT_EQ(report.v6_links, base.v6_links);
    EXPECT_EQ(report.dual_links, base.dual_links);
    EXPECT_EQ(report.v6_coverage.covered_links, base.v6_coverage.covered_links);
    EXPECT_EQ(report.dual_coverage.covered_links, base.dual_coverage.covered_links);
    EXPECT_EQ(report.hybrids.hybrids.size(), base.hybrids.hybrids.size());
    EXPECT_EQ(report.hybrids.v6_paths_with_hybrid, base.hybrids.v6_paths_with_hybrid);
    EXPECT_EQ(report.v6_valleys.valley, base.v6_valleys.valley);
    EXPECT_EQ(report.v6_valleys.necessary_valleys, base.v6_valleys.necessary_valleys);
    ASSERT_EQ(report.hybrids.hybrids.size(), base.hybrids.hybrids.size());
    for (std::size_t i = 0; i < report.hybrids.hybrids.size(); ++i) {
      EXPECT_EQ(report.hybrids.hybrids[i].link, base.hybrids.hybrids[i].link);
      EXPECT_EQ(report.hybrids.hybrids[i].rel_v4, base.hybrids.hybrids[i].rel_v4);
      EXPECT_EQ(report.hybrids.hybrids[i].rel_v6, base.hybrids.hybrids[i].rel_v6);
    }
  }
}

// The census is a function of the route set, not of route order: a
// shuffled RIB gives the same snapshot bytes at any job count.  This is
// what lets the live census materialize its table in key order and still
// equal a census over the dump in file order.
TEST_F(ParallelFixture, ShuffledRibGivesTheSameSnapshotBytes) {
  const auto snapshot_bytes = [](const mrt::ObservedRib& rib, std::size_t jobs) {
    ThreadPool pool(jobs);
    const auto report = core::run_census(rib, dict(), {}, pool);
    return snapshot::Writer::encode(core::to_snapshot(report, "order", 0));
  };
  const auto base = snapshot_bytes(rib(), 1);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<mrt::ObservedRoute> routes = rib().routes();
    Rng(seed).shuffle(routes);
    mrt::ObservedRib shuffled;
    for (auto& route : routes) shuffled.add(std::move(route));
    for (const std::size_t jobs : {1u, 4u}) {
      EXPECT_EQ(snapshot_bytes(shuffled, jobs), base) << "seed " << seed << ", jobs " << jobs;
    }
  }
}

// The dataset entity counts and the most-voted links are exact values of
// the run: every run_census call in the process gives the same ones, at
// any job count, and they equal a brute force over every hop of every path
// and an unsharded vote scan.
TEST_F(ParallelFixture, DatasetEntitiesMatchBruteForce) {
  std::unordered_set<Prefix, PrefixHash> prefixes;
  std::unordered_set<Asn> ases;
  std::unordered_set<LinkKey, LinkKeyHash> links;
  for (const auto& route : rib().routes()) {
    prefixes.insert(route.prefix);
    const auto& path = route.as_path;
    ases.insert(path.begin(), path.end());
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] != path[i + 1]) links.emplace(path[i], path[i + 1]);
    }
  }
  std::unordered_map<LinkKey, std::uint64_t, LinkKeyHash> vote_sums;
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const auto routes = rib().routes_of(af);
    const auto votes = core::scan_community_votes(routes, 0, routes.size(), dict());
    for (const auto& [key, tallies] : votes.votes) {
      for (const std::uint32_t n : tallies) vote_sums[key] += n;
    }
  }
  std::vector<core::VotedLink> top;
  for (const auto& [key, votes] : vote_sums) {
    if (votes > 0) top.push_back({key, votes});
  }
  std::sort(top.begin(), top.end(), [](const core::VotedLink& a, const core::VotedLink& b) {
    return a.votes != b.votes ? a.votes > b.votes : a.link < b.link;
  });
  top.resize(std::min(top.size(), core::kTopVotedLinks));
  ASSERT_EQ(top.size(), core::kTopVotedLinks);

  for (std::size_t jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    for (int run = 0; run < 2; ++run) {
      const auto report = core::run_census(rib(), dict(), {}, pool);
      EXPECT_EQ(report.ases, ases.size()) << "jobs=" << jobs << " run=" << run;
      EXPECT_EQ(report.prefixes, prefixes.size()) << "jobs=" << jobs << " run=" << run;
      EXPECT_EQ(report.v4_links + report.v6_links - report.dual_links, links.size());
      EXPECT_EQ(report.inferred.top_voted_links, top) << "jobs=" << jobs << " run=" << run;
    }
  }
}

}  // namespace
}  // namespace htor
