// Tests for the parallel census subsystem: the thread pool itself, the
// deterministic shard planner, and — the property the whole design hangs on —
// that every pool-sharded pipeline stage gives the same result at one job
// and at several, and agrees with a reference built without the shard merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
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
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
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

  ThreadPool inline_pool;
  mrt::MrtStreamReader inline_stream(bytes);
  const auto base = mrt::rib_from_stream(inline_stream, inline_pool);
  ASSERT_EQ(base.size(), rib().size());
  ThreadPool pool(4);
  mrt::MrtStreamReader stream(bytes);
  const auto sharded = mrt::rib_from_stream(stream, pool);
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
// what lets the live census keep its table in key order and still
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

// ------------------------------------------- oracles written in the test

/// A RIB with fewer routes than kCensusShards, both families, every route
/// tagged: the stages run on fewer shards than partitions.
const mrt::ObservedRib& small_rib() {
  static const mrt::ObservedRib instance = [] {
    mrt::ObservedRib rib;
    for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
      std::size_t taken = 0;
      for (const auto& route : ParallelFixture::rib().routes()) {
        if (route.af != af || route.communities.empty() || !route.local_pref) continue;
        rib.add(route);
        if (++taken == 10) break;
      }
    }
    return rib;
  }();
  return instance;
}

/// The RIBs every oracle below runs on.
std::vector<std::pair<std::string, const mrt::ObservedRib*>> oracle_ribs() {
  static const mrt::ObservedRib empty;
  return {{"fixture", &ParallelFixture::rib()}, {"small", &small_rib()}, {"empty", &empty}};
}

std::size_t family(IpVersion af) { return af == IpVersion::V4 ? 0 : 1; }

/// Community inference by brute force: each family's votes from one
/// unsharded scan, every link typed by the majority rule, and the links
/// ranked by their votes over both families.
struct CommunityOracle {
  std::array<core::CommunityInferenceResult, 2> families;
  std::vector<core::VotedLink> top;
};

CommunityOracle community_oracle(const mrt::ObservedRib& rib,
                                 const rpsl::CommunityDictionary& dict) {
  constexpr std::array<Relationship, 4> kRels{Relationship::P2C, Relationship::C2P,
                                              Relationship::P2P, Relationship::S2S};
  const core::CommunityInferenceParams params;
  CommunityOracle oracle;
  std::map<LinkKey, std::uint64_t> totals;
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const auto routes = rib.routes_of(af);
    const auto votes = core::scan_community_votes(routes, 0, routes.size(), dict);
    core::CommunityInferenceResult& result = oracle.families[family(af)];
    result.tagged_routes = votes.tagged_routes;
    result.total_votes = votes.total_votes;
    result.links_with_votes = votes.votes.size();
    for (const auto& [link, tallies] : votes.votes) {
      const std::uint64_t total = std::accumulate(tallies.begin(), tallies.end(), std::uint64_t{0});
      totals[link] += total;
      const auto best = std::max_element(tallies.begin(), tallies.end());
      if (std::count(tallies.begin(), tallies.end(), *best) > 1 || *best < params.min_votes ||
          *best < params.majority * static_cast<double>(total)) {
        ++result.conflicted_links;
        continue;
      }
      result.rels.set(link.first, link.second, kRels[best - tallies.begin()]);
    }
  }
  for (const auto& [link, votes] : totals) {
    if (votes > 0) oracle.top.push_back({link, votes});
  }
  // The map lists links ascending, so a stable sort by votes breaks ties by link.
  std::stable_sort(oracle.top.begin(), oracle.top.end(),
                   [](const core::VotedLink& a, const core::VotedLink& b) {
                     return a.votes > b.votes;
                   });
  oracle.top.resize(std::min(oracle.top.size(), core::kTopVotedLinks));
  return oracle;
}

/// Rosetta as one plain loop per pass: learn every (vantage, LocPrf)
/// sample, keep the values one relationship explains, then type the first
/// hops communities left Unknown.
core::RosettaResult rosetta_oracle(const std::vector<const mrt::ObservedRoute*>& routes,
                                   const rpsl::CommunityDictionary& dict,
                                   const RelationshipMap& known) {
  const core::RosettaParams params;
  const auto first_hop = [](const mrt::ObservedRoute& route) -> std::optional<LinkKey> {
    for (Asn hop : route.as_path) {
      if (hop != route.as_path.front()) return LinkKey(route.as_path.front(), hop);
    }
    return std::nullopt;
  };
  const auto te_filtered = [&dict](const mrt::ObservedRoute& route) {
    for (bgp::Community c : route.communities) {
      if (c == bgp::kNoExport || c == bgp::kNoAdvertise) return true;
      const rpsl::CommunityMeaning* meaning = dict.lookup(c);
      if (c.asn() == route.as_path.front() && meaning != nullptr &&
          meaning->kind == rpsl::CommunityTagKind::SetLocPref) {
        return true;
      }
    }
    return false;
  };

  core::RosettaResult result;
  std::map<std::pair<Asn, std::uint32_t>, std::map<Relationship, std::uint32_t>> samples;
  for (const mrt::ObservedRoute* route : routes) {
    if (!route->local_pref || !first_hop(*route)) continue;
    if (te_filtered(*route)) {
      ++result.routes_te_filtered;
      continue;
    }
    const Asn vantage = route->as_path.front();
    const LinkKey hop = *first_hop(*route);
    const Asn next = hop.first == vantage ? hop.second : hop.first;
    const Relationship rel = known.get(vantage, next);
    if (rel != Relationship::Unknown) ++samples[{vantage, *route->local_pref}][rel];
  }
  std::map<std::pair<Asn, std::uint32_t>, Relationship> translation;
  for (const auto& [value, counts] : samples) {
    if (counts.size() != 1) {
      ++result.values_ambiguous;
    } else if (counts.begin()->second >= params.min_samples) {
      translation[value] = counts.begin()->first;
      ++result.values_learned;
    }
  }
  for (const mrt::ObservedRoute* route : routes) {
    if (!route->local_pref || !first_hop(*route)) continue;
    const Asn vantage = route->as_path.front();
    const LinkKey hop = *first_hop(*route);
    const Asn next = hop.first == vantage ? hop.second : hop.first;
    if (known.get(vantage, next) != Relationship::Unknown || te_filtered(*route)) continue;
    const auto it = translation.find({vantage, *route->local_pref});
    if (it == translation.end()) continue;
    if (result.first_hop_rels.get(vantage, next) == Relationship::Unknown) {
      result.first_hop_rels.set(vantage, next, it->second);
    }
    ++result.routes_resolved;
  }
  return result;
}

void expect_same_tally(const core::CommunityInferenceResult& got,
                       const core::CommunityInferenceResult& want) {
  EXPECT_EQ(got.links_with_votes, want.links_with_votes);
  EXPECT_EQ(got.conflicted_links, want.conflicted_links);
  EXPECT_EQ(got.tagged_routes, want.tagged_routes);
  EXPECT_EQ(got.total_votes, want.total_votes);
  expect_same_rels(got.rels, want.rels);
}

void expect_same_rosetta(const core::RosettaResult& got, const core::RosettaResult& want) {
  EXPECT_EQ(got.values_learned, want.values_learned);
  EXPECT_EQ(got.values_ambiguous, want.values_ambiguous);
  EXPECT_EQ(got.routes_te_filtered, want.routes_te_filtered);
  EXPECT_EQ(got.routes_resolved, want.routes_resolved);
  expect_same_rels(got.first_hop_rels, want.first_hop_rels);
}

/// The partitioned vote tally and the sharded Rosetta passes against the
/// plain loops above at jobs 1, 2 and 4: the same tallies, top-voted links,
/// Rosetta counts and first hops, and final maps.  Returns the oracle's
/// Rosetta results, v4 then v6.
std::array<core::RosettaResult, 2> expect_inference_matches_plain_loops(
    const mrt::ObservedRib& rib, const rpsl::CommunityDictionary& dict) {
  const CommunityOracle community = community_oracle(rib, dict);
  std::array<core::RosettaResult, 2> rosetta;
  std::array<RelationshipMap, 2> final_rels;
  for (IpVersion af : {IpVersion::V4, IpVersion::V6}) {
    const std::size_t f = family(af);
    rosetta[f] = rosetta_oracle(rib.routes_of(af), dict, community.families[f].rels);
    final_rels[f] = community.families[f].rels;
    rosetta[f].first_hop_rels.for_each([&final_rels, f](const LinkKey& key, Relationship rel) {
      if (!final_rels[f].contains(key)) final_rels[f].set(key.first, key.second, rel);
    });
  }
  for (std::size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ThreadPool pool(jobs);
    const auto inferred = core::infer_relationships(rib, dict, {}, pool);
    expect_same_tally(inferred.community_v4, community.families[0]);
    expect_same_tally(inferred.community_v6, community.families[1]);
    EXPECT_EQ(inferred.top_voted_links, community.top);
    expect_same_rosetta(inferred.rosetta_v4, rosetta[0]);
    expect_same_rosetta(inferred.rosetta_v6, rosetta[1]);
    expect_same_rels(inferred.v4, final_rels[0]);
    expect_same_rels(inferred.v6, final_rels[1]);
  }
  return rosetta;
}

TEST_F(ParallelFixture, InferenceMatchesPlainLoops) {
  for (const auto& [name, rib] : oracle_ribs()) {
    SCOPED_TRACE(name);
    const auto rosetta = expect_inference_matches_plain_loops(*rib, dict());
    if (name == "fixture") {
      EXPECT_GT(rosetta[0].routes_resolved + rosetta[1].routes_resolved, 0u);
      EXPECT_GT(rosetta[0].routes_te_filtered + rosetta[1].routes_te_filtered, 0u);
    }
  }
}

// One untyped first hop that two LocPrf values translate differently, its
// routes in the first and the last of 32 shards: the first route's
// relationship wins, as in one pass over the routes.
TEST(ParallelRosetta, FirstHopKeepsTheFirstRoutesRelationshipAcrossShards) {
  rpsl::CommunityDictionary dict;
  dict.add(bgp::Community(100, 1), {rpsl::CommunityTagKind::FromCustomer, 0});
  dict.add(bgp::Community(100, 2), {rpsl::CommunityTagKind::FromPeer, 0});
  const auto route = [](std::vector<Asn> path, std::vector<bgp::Community> communities,
                        std::optional<std::uint32_t> locpref) {
    mrt::ObservedRoute r;
    r.peer_asn = path.front();
    r.as_path = std::move(path);
    r.communities = std::move(communities);
    r.local_pref = locpref;
    return r;
  };
  mrt::ObservedRib rib;
  rib.add(route({100, 299}, {}, 120));
  for (Asn origin : {201u, 202u, 203u}) rib.add(route({100, origin}, {bgp::Community(100, 1)}, 120));
  for (Asn origin : {211u, 212u, 213u}) rib.add(route({100, origin}, {bgp::Community(100, 2)}, 80));
  for (Asn origin = 400; origin < 460; ++origin) rib.add(route({300, origin}, {}, std::nullopt));
  rib.add(route({100, 299}, {}, 80));
  ASSERT_EQ(core::shard_ranges(rib.size()).size(), core::kCensusShards);

  const auto rosetta = expect_inference_matches_plain_loops(rib, dict);
  EXPECT_EQ(rosetta[0].first_hop_rels.get(100, 299), Relationship::P2C);
  EXPECT_EQ(rosetta[0].routes_resolved, 2u);
}

// The dataset entity counts and the most-voted links are exact values of
// the run: every run_census call in the process gives the same ones, at
// any job count, and they equal a brute force over every hop of every path
// and an unsharded vote scan.
TEST_F(ParallelFixture, DatasetEntitiesMatchBruteForce) {
  for (const auto& [name, rib] : oracle_ribs()) {
    std::unordered_set<Prefix, PrefixHash> prefixes;
    std::unordered_set<Asn> ases;
    std::unordered_set<LinkKey, LinkKeyHash> links;
    for (const auto& route : rib->routes()) {
      prefixes.insert(route.prefix);
      const auto& path = route.as_path;
      ases.insert(path.begin(), path.end());
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] != path[i + 1]) links.emplace(path[i], path[i + 1]);
      }
    }
    const std::vector<core::VotedLink> top = community_oracle(*rib, dict()).top;
    if (name == "fixture") {
      ASSERT_EQ(top.size(), core::kTopVotedLinks);
    }

    for (std::size_t jobs : {1u, 2u, 4u}) {
      ThreadPool pool(jobs);
      for (int run = 0; run < 2; ++run) {
        SCOPED_TRACE(name + " jobs=" + std::to_string(jobs) + " run=" + std::to_string(run));
        const auto report = core::run_census(*rib, dict(), {}, pool);
        EXPECT_EQ(report.ases, ases.size());
        EXPECT_EQ(report.prefixes, prefixes.size());
        EXPECT_EQ(report.v4_links + report.v6_links - report.dual_links, links.size());
        EXPECT_EQ(report.inferred.top_voted_links, top);
      }
    }
  }
}

}  // namespace
}  // namespace htor
