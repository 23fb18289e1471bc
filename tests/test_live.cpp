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
#include <optional>
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
#include "util/rng.hpp"

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

/// The routes of a key-ordered reference table, in its order.
std::vector<mrt::ObservedRoute> walk(const std::map<RouteKey, mrt::ObservedRoute>& table) {
  std::vector<mrt::ObservedRoute> out;
  for (const auto& [key, route] : table) out.push_back(route);
  return out;
}

/// The last-wins table of `routes` read in order.
std::map<RouteKey, mrt::ObservedRoute> last_wins_table(
    const std::vector<mrt::ObservedRoute>& routes) {
  std::map<RouteKey, mrt::ObservedRoute> table;
  for (const auto& route : routes) {
    table.insert_or_assign(RouteKey{route.af, route.prefix, route.peer_asn}, route);
  }
  return table;
}

/// A twin of `route` under the same key that differs in its attributes.
mrt::ObservedRoute twin_of(const mrt::ObservedRoute& route) {
  mrt::ObservedRoute twin = route;
  twin.local_pref = route.local_pref.value_or(0) + 1;
  twin.communities.clear();
  return twin;
}

// The seed RIB may list a key more than once, in any order: the live table
// keeps the last row of each key, in key order.  Both the shuffled input
// (sorted by the seed) and an already-sorted one (kept in place) are held to
// the last-wins map.
TEST(ObservedRibApply, SeedIsLastWinsPerKey) {
  const World& w = world();
  std::vector<mrt::ObservedRoute> rows = w.rib.routes();
  for (std::size_t i = 0; i < w.rib.size(); i += 7) rows.push_back(twin_of(rows[i]));
  Rng rng(11);
  rng.shuffle(rows);
  const auto shuffled_table = last_wins_table(rows);
  ASSERT_LT(shuffled_table.size(), rows.size()) << "the input must repeat keys";
  ASSERT_NE(walk(shuffled_table), walk(last_wins_table(w.rib.routes())))
      << "some repeated key must keep a row other than the generator's";

  std::vector<mrt::ObservedRoute> sorted_rows;
  const auto generator_table = last_wins_table(w.rib.routes());
  for (const auto& [key, route] : generator_table) {
    sorted_rows.push_back(route);
    if (sorted_rows.size() % 5 == 0) sorted_rows.push_back(twin_of(route));
  }
  const auto sorted_table = last_wins_table(sorted_rows);
  ASSERT_LT(sorted_table.size(), sorted_rows.size());

  for (const auto* input : {&rows, &sorted_rows}) {
    const auto want = last_wins_table(*input);
    ObservedRib rib;
    rib.seed(mrt::ObservedRib(*input));
    EXPECT_EQ(rib.materialize().routes(), walk(want));
    EXPECT_EQ(rib.fold().routes(), walk(want));
    EXPECT_EQ(rib.size(), want.size());
    const auto v6 = static_cast<std::size_t>(std::count_if(
        want.begin(), want.end(), [](const auto& kv) { return kv.first.af == IpVersion::V6; }));
    EXPECT_EQ(rib.size_of(IpVersion::V6), v6);
    EXPECT_EQ(rib.size_of(IpVersion::V4), want.size() - v6);
  }
}

// --------------------------------------------- independent replay oracle

/// Applies one UPDATE to a plain key -> route map the way RFC 4271 reads
/// it (every withdraw, then every announce), counting into `stats` as
/// ApplyStats defines its fields.
void reference_apply(std::map<RouteKey, mrt::ObservedRoute>& table,
                     const mrt::Bgp4mpMessage& msg, ApplyStats& stats) {
  const auto& update = std::get<bgp::UpdateMessage>(msg.message);
  const auto withdraw = [&](IpVersion af, const Prefix& p) {
    if (table.erase(RouteKey{af, p, msg.peer_as}) == 1) {
      ++stats.withdrawn;
    } else {
      ++stats.withdrawn_missing;
    }
  };
  for (const auto& p : update.withdrawn) withdraw(IpVersion::V4, p);
  if (update.attrs.mp_unreach) {
    for (const auto& p : update.attrs.mp_unreach->withdrawn) withdraw(IpVersion::V6, p);
  }
  const auto announce = [&](IpVersion af, const Prefix& p) {
    mrt::ObservedRoute route;
    route.af = af;
    route.prefix = p;
    route.peer_asn = msg.peer_as;
    route.as_path = update.attrs.as_path.flatten();
    route.local_pref = update.attrs.local_pref;
    route.communities = update.attrs.communities;
    const auto [it, fresh] = table.try_emplace(RouteKey{af, p, msg.peer_as}, route);
    if (fresh) {
      ++stats.announced;
    } else if (it->second == route) {
      ++stats.duplicates;
    } else {
      it->second = std::move(route);
      ++stats.replaced;
    }
  };
  for (const auto& p : update.nlri) announce(IpVersion::V4, p);
  if (update.attrs.mp_reach) {
    for (const auto& p : update.attrs.mp_reach->nlri) announce(IpVersion::V6, p);
  }
  ++stats.messages;
}

/// The batch census over a reference table, as snapshot bytes.
std::vector<std::uint8_t> reference_census(const std::map<RouteKey, mrt::ObservedRoute>& table,
                                           const rpsl::CommunityDictionary& dict,
                                           ThreadPool& pool, std::uint32_t timestamp) {
  const auto report =
      core::run_census(mrt::ObservedRib(walk(table)), dict, core::InferenceConfig{}, pool);
  return snapshot::Writer::encode(core::to_snapshot(report, kSource, timestamp));
}

/// Applies the first `count` update records to the seed RIB with
/// test-local logic (an insert-or-assign/erase map keyed like the live
/// table), then runs the BATCH census over the result.  This shares no
/// apply code with src/live/ — it is the ground truth the pipeline's
/// epochs are measured against.
std::vector<std::uint8_t> replay_reference(const World& w, std::size_t count,
                                           ThreadPool& pool) {
  auto table = last_wins_table(w.rib.routes());
  ApplyStats stats;
  std::uint32_t last_ts = kSeedTimestamp;
  for (std::size_t i = 0; i < count && i < w.updates.size(); ++i) {
    const auto& record = w.updates[i];
    reference_apply(table, std::get<mrt::Bgp4mpMessage>(record.body), stats);
    last_ts = record.timestamp;
  }
  return reference_census(table, w.dict, pool, last_ts);
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

// ------------------------------------------------------------- model test

/// Key space of the model streams: three peers and four prefixes per
/// family.  10.1.0.0/16 and ::a01:0/112 (the same 32 bits) are one prefix
/// in both families.
const std::vector<Asn> kModelPeers = {65001, 65002, 65003};

std::vector<Prefix> model_prefixes() {
  std::vector<Prefix> out;
  for (const char* text : {"10.1.0.0/16", "10.1.0.0/24", "10.2.0.0/16", "192.0.2.0/24",
                           "::a01:0/112", "2001:db8::/32", "2001:db8:1::/48", "2001:db8:2::/48"}) {
    out.push_back(Prefix::parse(text));
  }
  return out;
}

/// Route attributes drawn from a handful of paths, LocPrfs and communities.
struct ModelAttrs {
  std::vector<Asn> path;
  std::optional<std::uint32_t> local_pref;
  std::vector<bgp::Community> communities;
};

ModelAttrs random_attrs(Rng& rng, Asn peer) {
  ModelAttrs attrs;
  attrs.path = {peer, rng.uniform(0, 1) == 0 ? Asn{3356} : Asn{1299},
                static_cast<Asn>(64600 + rng.uniform(0, 2))};
  if (rng.chance(0.3)) attrs.local_pref = 100 + 10 * rng.uniform(0, 1);
  if (rng.chance(0.3)) attrs.communities = {bgp::Community(3356, 2000)};
  return attrs;
}

/// One UPDATE from `peer`: each prefix goes to its family's withdraw or
/// announce field (IPv4 in the body, IPv6 in MP_UNREACH / MP_REACH).
mrt::Bgp4mpMessage model_update(Asn peer, const std::vector<Prefix>& withdrawn,
                                const std::vector<Prefix>& announced, const ModelAttrs& attrs) {
  bgp::UpdateMessage update;
  for (const auto& p : withdrawn) {
    if (p.version() == IpVersion::V4) {
      update.withdrawn.push_back(p);
    } else {
      if (!update.attrs.mp_unreach) update.attrs.mp_unreach.emplace();
      update.attrs.mp_unreach->withdrawn.push_back(p);
    }
  }
  if (!announced.empty()) {
    update.attrs.origin = bgp::Origin::Igp;
    update.attrs.as_path = bgp::AsPath::sequence(attrs.path);
    update.attrs.local_pref = attrs.local_pref;
    update.attrs.communities = attrs.communities;
  }
  for (const auto& p : announced) {
    if (p.version() == IpVersion::V4) {
      update.attrs.next_hop = IpAddress::parse("10.0.0.1");
      update.nlri.push_back(p);
    } else {
      if (!update.attrs.mp_reach) {
        update.attrs.mp_reach.emplace();
        update.attrs.mp_reach->next_hops = {IpAddress::parse("2001:db8::1")};
      }
      update.attrs.mp_reach->nlri.push_back(p);
    }
  }
  return wrap_update(peer, std::move(update));
}

void expect_same_stats(const ApplyStats& got, const ApplyStats& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.announced, want.announced);
  EXPECT_EQ(got.replaced, want.replaced);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.withdrawn, want.withdrawn);
  EXPECT_EQ(got.withdrawn_missing, want.withdrawn_missing);
}

// The live RIB against a plain map.  Seeded random streams announce new
// keys, replace and identically re-announce held ones, withdraw held and
// missing keys, withdraw and re-announce one key inside an epoch, and touch
// one prefix in both families, folding at random points.  After every
// message the copy for checks equals the map walk and the counters agree;
// after every fold the census over the table, at 1 and 4 jobs, equals the
// census over the map.
TEST(ObservedRibModel, RandomStreamsMatchAPlainMap) {
  const std::vector<Prefix> prefixes = model_prefixes();
  const rpsl::CommunityDictionary dict;
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ApplyStats total;
  std::size_t folds = 0;
  std::size_t flaps = 0;
  std::size_t two_family_messages = 0;

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("stream seed " + std::to_string(seed));
    Rng rng(seed);

    // A seed RIB over part of the key space, shuffled, some keys twice.
    std::vector<mrt::ObservedRoute> seed_rows;
    for (const Asn peer : kModelPeers) {
      for (const auto& prefix : prefixes) {
        const int rows = rng.chance(0.5) ? 0 : (rng.chance(0.2) ? 2 : 1);
        for (int i = 0; i < rows; ++i) {
          const ModelAttrs attrs = random_attrs(rng, peer);
          seed_rows.push_back(mrt::ObservedRoute{prefix.version(), prefix, peer, attrs.path,
                                                 attrs.local_pref, attrs.communities});
        }
      }
    }
    rng.shuffle(seed_rows);
    auto model = last_wins_table(seed_rows);
    ApplyStats model_stats;
    ObservedRib rib;
    rib.seed(mrt::ObservedRib(seed_rows));

    const auto check = [&] {
      ASSERT_EQ(rib.materialize().routes(), walk(model));
      expect_same_stats(rib.stats(), model_stats);
      const auto v6 = static_cast<std::size_t>(std::count_if(
          model.begin(), model.end(), [](const auto& kv) { return kv.first.af == IpVersion::V6; }));
      ASSERT_EQ(rib.size(), model.size());
      ASSERT_EQ(rib.size_of(IpVersion::V6), v6);
      ASSERT_EQ(rib.size_of(IpVersion::V4), model.size() - v6);
    };
    const auto send = [&](const mrt::Bgp4mpMessage& msg) {
      const auto& update = std::get<bgp::UpdateMessage>(msg.message);
      if (!update.nlri.empty() && update.attrs.mp_reach) ++two_family_messages;
      rib.apply(msg);
      reference_apply(model, msg, model_stats);
      check();
    };
    const auto random_prefixes = [&] {
      std::vector<Prefix> out{rng.pick(prefixes)};
      if (rng.chance(0.4)) out.push_back(rng.pick(prefixes));
      return out;
    };

    check();
    for (int step = 0; step < 200; ++step) {
      const Asn peer = rng.pick(kModelPeers);
      switch (rng.index(5)) {
        case 0:  // withdraw, held or not
          send(model_update(peer, random_prefixes(), {}, {}));
          break;
        case 1:  // announce: a new key or a replace
          send(model_update(peer, {}, random_prefixes(), random_attrs(rng, peer)));
          break;
        case 2: {  // one prefix withdrawn and announced in one message
          const auto both = random_prefixes();
          send(model_update(peer, both, both, random_attrs(rng, peer)));
          break;
        }
        case 3: {  // an identical re-announce of a held route
          if (model.empty()) break;
          auto held = model.begin();
          std::advance(held, static_cast<std::ptrdiff_t>(rng.index(model.size())));
          const mrt::ObservedRoute& route = held->second;
          send(model_update(route.peer_asn, {}, {route.prefix},
                            {route.as_path, route.local_pref, route.communities}));
          break;
        }
        case 4: {  // withdraw a held key, then re-announce it before the fold
          if (model.empty()) break;
          auto held = model.begin();
          std::advance(held, static_cast<std::ptrdiff_t>(rng.index(model.size())));
          const RouteKey key = held->first;
          send(model_update(key.peer, {key.prefix}, {}, {}));
          send(model_update(key.peer, {}, {key.prefix}, random_attrs(rng, key.peer)));
          ++flaps;
          break;
        }
      }
      if (rng.chance(0.15)) {
        const mrt::ObservedRib& table = rib.fold();
        ++folds;
        ASSERT_EQ(table.routes(), walk(model));
        const auto want = reference_census(model, dict, pool1, kSeedTimestamp);
        for (ThreadPool* pool : {&pool1, &pool4}) {
          const auto report = core::run_census(table, dict, core::InferenceConfig{}, *pool);
          EXPECT_EQ(snapshot::Writer::encode(core::to_snapshot(report, kSource, kSeedTimestamp)),
                    want)
              << "census over the folded table at jobs " << pool->concurrency();
        }
      }
    }
    total.announced += model_stats.announced;
    total.replaced += model_stats.replaced;
    total.duplicates += model_stats.duplicates;
    total.withdrawn += model_stats.withdrawn;
    total.withdrawn_missing += model_stats.withdrawn_missing;
  }
  // The streams reached every case they were written for.
  EXPECT_GT(total.announced, 0u);
  EXPECT_GT(total.replaced, 0u);
  EXPECT_GT(total.duplicates, 0u);
  EXPECT_GT(total.withdrawn, 0u);
  EXPECT_GT(total.withdrawn_missing, 0u);
  EXPECT_GT(flaps, 0u);
  EXPECT_GT(two_family_messages, 0u);
  EXPECT_GT(folds, 0u);
}

}  // namespace
}  // namespace htor::live
