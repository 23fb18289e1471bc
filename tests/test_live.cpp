// Tests for the continuous-census subsystem (src/live/): BGP4MP apply
// semantics on the live ObservedRib, the RIB rules the live contract rests
// on, and the pipeline's equivalence oracle — every epoch's snapshot is
// byte-identical to an independent sequential replay of the same update
// prefix, at any pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/message.hpp"
#include "core/census_report.hpp"
#include "core/community_inference.hpp"
#include "core/snapshot_bridge.hpp"
#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "live/incremental_census.hpp"
#include "live/observed_rib.hpp"
#include "live/pipeline.hpp"
#include "mrt/writer.hpp"
#include "obs/metrics.hpp"
#include "rpsl/object.hpp"
#include "snapshot/writer.hpp"

namespace htor::live {
namespace {

constexpr std::uint32_t kSeedTimestamp = 1281052800u;
constexpr char kSource[] = "live-test";

/// Shared fixture: a small synthetic internet, its mined dictionary, and a
/// deterministic update schedule over its collector RIB.
struct World {
  mrt::ObservedRib rib;
  rpsl::CommunityDictionary dict;
  std::vector<mrt::Record> updates;
};

const World& world() {
  static const World w = [] {
    const auto net = gen::SyntheticInternet::generate(gen::small_params(7));
    World out;
    out.rib = net.collect();
    out.dict = rpsl::mine_dictionary(rpsl::parse_objects(net.irr_dump()));
    gen::UpdateScheduleParams params;
    params.events = 400;
    out.updates = gen::synthesize_updates(out.rib, params);
    return out;
  }();
  return w;
}

std::string write_updates_file(const std::vector<mrt::Record>& records, const std::string& name) {
  mrt::MrtWriter writer;
  for (const auto& record : records) writer.write(record);
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out);
  const auto& bytes = writer.data();
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return path;
}

// ------------------------------------------------------- message builders

mrt::Bgp4mpMessage wrap_update(Asn peer, bgp::UpdateMessage update) {
  mrt::Bgp4mpMessage msg;
  msg.peer_as = peer;
  msg.local_as = 64500;
  msg.peer_ip = IpAddress::parse("10.0.0.1");
  msg.local_ip = IpAddress::parse("10.0.0.2");
  msg.message = std::move(update);
  return msg;
}

mrt::Bgp4mpMessage v4_announce(Asn peer, const std::string& prefix, std::vector<Asn> path,
                               std::optional<std::uint32_t> local_pref = {}) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::Igp;
  update.attrs.as_path = bgp::AsPath::sequence(std::move(path));
  update.attrs.next_hop = IpAddress::parse("10.0.0.1");
  update.attrs.local_pref = local_pref;
  update.nlri.push_back(Prefix::parse(prefix));
  return wrap_update(peer, std::move(update));
}

mrt::Bgp4mpMessage v4_withdraw(Asn peer, const std::string& prefix) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse(prefix));
  return wrap_update(peer, std::move(update));
}

// --------------------------------------------------------- apply semantics

TEST(ObservedRibApply, AnnounceReplaceDuplicateWithdrawCounters) {
  ObservedRib rib;
  rib.apply(v4_announce(65001, "10.1.0.0/16", {65001, 65002}));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.stats().announced, 1u);

  rib.apply(v4_announce(65001, "10.1.0.0/16", {65001, 65002}));
  EXPECT_EQ(rib.stats().duplicates, 1u);
  EXPECT_EQ(rib.size(), 1u);

  rib.apply(v4_announce(65001, "10.1.0.0/16", {65001, 65002}, 120));
  EXPECT_EQ(rib.stats().replaced, 1u);
  EXPECT_EQ(rib.size(), 1u);

  // Same prefix from a different peer is a distinct route.
  rib.apply(v4_announce(65009, "10.1.0.0/16", {65009, 65002}));
  EXPECT_EQ(rib.size(), 2u);

  rib.apply(v4_withdraw(65001, "10.1.0.0/16"));
  EXPECT_EQ(rib.stats().withdrawn, 1u);
  EXPECT_EQ(rib.size(), 1u);

  rib.apply(v4_withdraw(65001, "10.1.0.0/16"));
  EXPECT_EQ(rib.stats().withdrawn_missing, 1u);
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.stats().messages, 6u);
}

TEST(ObservedRibApply, NonUpdateMessagesAreCountedAndIgnored) {
  ObservedRib rib;
  mrt::Bgp4mpMessage keepalive;
  keepalive.peer_as = 65001;
  keepalive.message = bgp::KeepaliveMessage{};
  const auto delta = rib.apply(keepalive);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(rib.stats().non_updates, 1u);
  EXPECT_EQ(rib.stats().messages, 0u);
}

TEST(ObservedRibApply, WithdrawAndAnnounceOfSamePrefixAnnouncementWins) {
  ObservedRib rib;
  rib.apply(v4_announce(65001, "10.2.0.0/16", {65001, 65003}));
  // One UPDATE listing the prefix both withdrawn and announced (RFC 4271:
  // the announcement wins — withdraw first, then install).
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("10.2.0.0/16"));
  update.attrs.origin = bgp::Origin::Igp;
  update.attrs.as_path = bgp::AsPath::sequence({65001, 65004});
  update.attrs.next_hop = IpAddress::parse("10.0.0.1");
  update.nlri.push_back(Prefix::parse("10.2.0.0/16"));
  const auto delta = rib.apply(wrap_update(65001, std::move(update)));
  EXPECT_EQ(rib.size(), 1u);
  ASSERT_EQ(delta.removed.size(), 1u);
  ASSERT_EQ(delta.added.size(), 1u);
  EXPECT_EQ(delta.removed[0].as_path, (std::vector<Asn>{65001, 65003}));
  EXPECT_EQ(delta.added[0].as_path, (std::vector<Asn>{65001, 65004}));
}

TEST(ObservedRibApply, MissingAsPathThrowsWithoutMutating) {
  ObservedRib rib;
  rib.apply(v4_announce(65001, "10.3.0.0/16", {65001, 65002}));
  const auto before = rib.materialize();

  // Announce without an AS_PATH, which *also* withdraws the held route: the
  // validation must reject the whole message before the withdraw runs.
  bgp::UpdateMessage update;
  update.withdrawn.push_back(Prefix::parse("10.3.0.0/16"));
  update.nlri.push_back(Prefix::parse("10.4.0.0/16"));
  EXPECT_THROW(rib.apply(wrap_update(65001, std::move(update))), DecodeError);

  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.materialize().routes(), before.routes());
  EXPECT_EQ(rib.stats().withdrawn, 0u);
}

TEST(ObservedRibApply, FamilyMismatchThrowsWithoutMutating) {
  ObservedRib rib;
  // A v6 prefix in the v4 NLRI field.
  bgp::UpdateMessage update;
  update.attrs.as_path = bgp::AsPath::sequence({65001, 65002});
  update.nlri.push_back(Prefix::parse("2001:db8::/32"));
  EXPECT_THROW(rib.apply(wrap_update(65001, std::move(update))), DecodeError);
  // A v6 prefix in the v4 withdrawn field.
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn.push_back(Prefix::parse("2001:db8::/32"));
  EXPECT_THROW(rib.apply(wrap_update(65001, std::move(withdraw))), DecodeError);
  EXPECT_EQ(rib.size(), 0u);
}

TEST(ObservedRibApply, SeedIsLastWinsPerKey) {
  const World& w = world();
  ObservedRib rib;
  rib.seed(w.rib);
  EXPECT_EQ(rib.size(), w.rib.size());  // the generator dedups per key upstream
  EXPECT_EQ(rib.size_of(IpVersion::V4), w.rib.size_of(IpVersion::V4));
  EXPECT_EQ(rib.size_of(IpVersion::V6), w.rib.size_of(IpVersion::V6));
}

// --------------------------------------------- independent replay oracle

/// Applies the first `count` update records to the seed RIB with
/// test-local logic (an insert-or-assign/erase map keyed like the live
/// table), then runs the BATCH census over the result.  This shares no
/// apply code with src/live/ — it is the ground truth the pipeline's
/// epochs are measured against.
std::vector<std::uint8_t> replay_reference(const World& w, std::size_t count,
                                           ThreadPool& pool) {
  std::map<RouteKey, mrt::ObservedRoute> table;
  for (const auto& route : w.rib.routes()) {
    table.insert_or_assign(RouteKey{route.af, route.prefix, route.peer_asn}, route);
  }
  std::uint32_t last_ts = kSeedTimestamp;
  for (std::size_t i = 0; i < count && i < w.updates.size(); ++i) {
    const auto& record = w.updates[i];
    const auto& msg = std::get<mrt::Bgp4mpMessage>(record.body);
    const auto& update = std::get<bgp::UpdateMessage>(msg.message);
    for (const auto& p : update.withdrawn) {
      table.erase(RouteKey{IpVersion::V4, p, msg.peer_as});
    }
    if (update.attrs.mp_unreach) {
      for (const auto& p : update.attrs.mp_unreach->withdrawn) {
        table.erase(RouteKey{IpVersion::V6, p, msg.peer_as});
      }
    }
    const auto announce = [&](IpVersion af, const Prefix& p) {
      mrt::ObservedRoute route;
      route.af = af;
      route.prefix = p;
      route.peer_asn = msg.peer_as;
      route.as_path = update.attrs.as_path.flatten();
      route.local_pref = update.attrs.local_pref;
      route.communities = update.attrs.communities;
      table.insert_or_assign(RouteKey{af, p, msg.peer_as}, std::move(route));
    };
    for (const auto& p : update.nlri) announce(IpVersion::V4, p);
    if (update.attrs.mp_reach) {
      for (const auto& p : update.attrs.mp_reach->nlri) announce(IpVersion::V6, p);
    }
    last_ts = record.timestamp;
  }

  mrt::ObservedRib rib;
  for (const auto& [key, route] : table) rib.add(route);
  core::InferenceConfig config;
  const auto report = core::run_census(rib, w.dict, config, pool);
  return snapshot::Writer::encode(core::to_snapshot(report, kSource, last_ts));
}

TEST(IncrementalCensus, SeedEpochMatchesBatchCensus) {
  const World& w = world();
  ThreadPool pool(1);
  core::InferenceConfig config;
  IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);
  const auto epoch = census.recompute(pool);
  EXPECT_EQ(epoch.applied, 0u);
  EXPECT_EQ(epoch.last_timestamp, kSeedTimestamp);
  EXPECT_EQ(snapshot::Writer::encode(epoch.snap), replay_reference(w, 0, pool))
      << "epoch 0 must equal the batch census over the seed RIB";
}

std::uint64_t total_votes(const core::CensusReport& report) {
  return report.inferred.community_v4.total_votes + report.inferred.community_v6.total_votes;
}

// A dump may hold two rows for one (family, prefix, peer ASN).  The batch
// census counts both rows; the live RIB keeps the last one (seed() is
// last-wins), so epoch 0 equals the batch census over the last-wins table.
// Pinned so that a change to either rule is a deliberate one.
TEST(IncrementalCensus, DuplicateKeyRowsBatchCountsBothEpochZeroKeepsLast) {
  const World& w = world();
  const auto& routes = w.rib.routes();
  const auto voted = std::find_if(routes.begin(), routes.end(), [&](const auto& route) {
    return core::scan_community_votes({&route}, 0, 1, w.dict).total_votes > 0;
  });
  ASSERT_NE(voted, routes.end());
  mrt::ObservedRoute twin = *voted;  // same key, no communities, no votes
  twin.communities.clear();

  mrt::ObservedRib both_rows = w.rib;
  both_rows.add(twin);
  std::map<RouteKey, mrt::ObservedRoute> table;
  for (const auto& route : both_rows.routes()) {
    table.insert_or_assign(RouteKey{route.af, route.prefix, route.peer_asn}, route);
  }
  mrt::ObservedRib last_wins;
  for (const auto& [key, route] : table) last_wins.add(route);
  ASSERT_EQ(last_wins.size(), w.rib.size());

  ThreadPool pool(1);
  const core::InferenceConfig config;
  const auto seed_report = core::run_census(w.rib, w.dict, config, pool);
  const auto both_report = core::run_census(both_rows, w.dict, config, pool);
  const auto last_report = core::run_census(last_wins, w.dict, config, pool);
  EXPECT_EQ(total_votes(both_report), total_votes(seed_report))
      << "the batch census counts the first row's votes although a later row shares its key";
  EXPECT_LT(total_votes(last_report), total_votes(seed_report));

  IncrementalCensus census(both_rows, w.dict, config, kSource, kSeedTimestamp);
  EXPECT_EQ(census.rib().size(), w.rib.size());
  const auto epoch = census.recompute(pool);
  EXPECT_EQ(total_votes(epoch.report), total_votes(last_report));
  EXPECT_EQ(snapshot::Writer::encode(epoch.snap),
            snapshot::Writer::encode(core::to_snapshot(last_report, kSource, kSeedTimestamp)));
}

// The acceptance matrix: every epoch the feed cuts, with the epoch pool at
// 1 and 4 workers, is byte-identical to the independent replay of the same
// update prefix.
TEST(LivePipeline, EpochsMatchIndependentReplayAtAnyJobs) {
  const World& w = world();
  const std::string path = write_updates_file(w.updates, "live_equiv_updates.mrt");

  // Ground truth, computed once per distinct epoch boundary.
  std::map<std::uint64_t, std::vector<std::uint8_t>> reference;

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    IncrementalCensus census(w.rib, w.dict, core::InferenceConfig{}, kSource, kSeedTimestamp);
    PipelineConfig pipeline_config;
    pipeline_config.epoch_every = 150;
    Pipeline pipeline(census, pipeline_config);

    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> epochs;
    const auto result = pipeline.run({path}, pool, [&](const EpochReport& epoch) {
      epochs.emplace_back(epoch.applied, snapshot::Writer::encode(epoch.snap));
    });
    ASSERT_FALSE(result.stopped);
    ASSERT_EQ(result.applied, w.updates.size());
    ASSERT_EQ(result.records, w.updates.size());
    ASSERT_GE(epochs.size(), 2u) << "expected mid-stream epochs plus the final one";
    ASSERT_EQ(epochs.back().first, w.updates.size());

    ThreadPool reference_pool(1);
    for (const auto& [applied, bytes] : epochs) {
      auto it = reference.find(applied);
      if (it == reference.end()) {
        it = reference.emplace(applied, replay_reference(w, applied, reference_pool)).first;
      }
      EXPECT_EQ(bytes, it->second) << "epoch at applied=" << applied
                                   << " diverged from the sequential replay (jobs=" << jobs << ")";
    }
  }
  std::remove(path.c_str());
}

// A malformed update mid-stream surfaces from apply() with the census (and
// its RIB) exactly as before the bad message.
TEST(IncrementalCensus, RejectedUpdateLeavesCensusUntouched) {
  const World& w = world();
  ThreadPool pool(1);
  core::InferenceConfig config;
  IncrementalCensus census(w.rib, w.dict, config, kSource, kSeedTimestamp);
  const auto bytes_before = snapshot::Writer::encode(census.recompute(pool).snap);
  const auto size_before = census.rib().size();

  bgp::UpdateMessage bad;  // announce with no AS_PATH
  bad.nlri.push_back(Prefix::parse("10.99.0.0/16"));
  EXPECT_THROW(census.apply(kSeedTimestamp + 1, wrap_update(65001, std::move(bad))),
               DecodeError);

  EXPECT_EQ(census.applied(), 0u);
  EXPECT_EQ(census.rib().size(), size_before);
  EXPECT_EQ(snapshot::Writer::encode(census.recompute(pool).snap), bytes_before);
}

// Epoch churn is exact: the distinct prefixes, ASes and links touched by
// the epoch's updates.  A route that flaps within an epoch counts once, the
// next epoch starts from zero, and the live pipeline's gauges carry the
// same numbers as the EpochReport handed to on_epoch.
TEST(LivePipeline, EpochChurnIsExactAndEpochScoped) {
  std::vector<mrt::Record> updates;
  auto add = [&updates](mrt::Bgp4mpMessage msg) {
    updates.push_back(mrt::Record{kSeedTimestamp + static_cast<std::uint32_t>(updates.size()),
                                  std::move(msg)});
  };
  // Epoch 1: 10.1/16 flaps (announce, withdraw, announce), 10.2/16 arrives
  // with a prepend.  Prefixes {10.1, 10.2}; ASes 65001-65004; links 1-2,
  // 2-3, 2-4.
  add(v4_announce(65001, "10.1.0.0/16", {65001, 65002, 65003}));
  add(v4_withdraw(65001, "10.1.0.0/16"));
  add(v4_announce(65001, "10.1.0.0/16", {65001, 65002, 65003}));
  add(v4_announce(65001, "10.2.0.0/16", {65001, 65002, 65002, 65004}));
  // Epoch 2: 10.2/16 flaps back; withdraws of an unknown route touch
  // nothing.  Prefix {10.2}; ASes 65001, 65002, 65004; links 1-2, 2-4.
  add(v4_withdraw(65001, "10.2.0.0/16"));
  add(v4_announce(65001, "10.2.0.0/16", {65001, 65002, 65002, 65004}));
  add(v4_withdraw(65001, "10.9.0.0/16"));
  add(v4_withdraw(65001, "10.9.0.0/16"));
  const std::string path = write_updates_file(updates, "live_churn_updates.mrt");

  IncrementalCensus census(mrt::ObservedRib{}, rpsl::CommunityDictionary{},
                           core::InferenceConfig{}, kSource, kSeedTimestamp);
  PipelineConfig pipeline_config;
  pipeline_config.epoch_every = 4;
  Pipeline pipeline(census, pipeline_config);

  auto& reg = obs::MetricsRegistry::global();
  const auto gauge = [&reg](const char* kind) {
    const auto value = reg.gauge("htor_live_epoch_churn", {{"kind", kind}}).value();
    return static_cast<std::uint64_t>(value);
  };
  struct Churn {
    std::uint64_t prefixes, ases, links;
    bool operator==(const Churn&) const = default;
  };
  std::vector<Churn> seen;
  ThreadPool pool(1);
  const auto result = pipeline.run({path}, pool, [&](const EpochReport& epoch) {
    seen.push_back({epoch.churn_prefixes, epoch.churn_ases, epoch.churn_links});
    EXPECT_EQ(gauge("prefix"), epoch.churn_prefixes);
    EXPECT_EQ(gauge("as"), epoch.churn_ases);
    EXPECT_EQ(gauge("link"), epoch.churn_links);
  });
  EXPECT_EQ(result.applied, updates.size());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (Churn{2, 4, 3}));
  EXPECT_EQ(seen[1], (Churn{1, 3, 2}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace htor::live
