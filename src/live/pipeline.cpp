#include "live/pipeline.hpp"

#include <variant>

#include "mrt/reader.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/trace.hpp"

namespace htor::live {

Pipeline::Pipeline(IncrementalCensus& census, PipelineConfig config)
    : census_(census), config_(config) {
  auto& reg = obs::MetricsRegistry::global();
  records_total_ = reg.counter("htor_live_records_total");
  skipped_total_ = reg.counter("htor_live_skipped_records_total");
  updates_total_ = reg.counter("htor_live_updates_total");
  announces_total_ = reg.counter("htor_live_announces_total");
  withdraws_total_ = reg.counter("htor_live_withdraws_total");
  replaces_total_ = reg.counter("htor_live_replaces_total");
  epochs_total_ = reg.counter("htor_live_epochs_total");
  routes_ = reg.gauge("htor_live_routes");
  staleness_ = reg.gauge("htor_live_staleness_updates");
  churn_ases_ = reg.gauge("htor_live_epoch_churn", {{"kind", "as"}});
  churn_prefixes_ = reg.gauge("htor_live_epoch_churn", {{"kind", "prefix"}});
  churn_links_ = reg.gauge("htor_live_epoch_churn", {{"kind", "link"}});
  state_running_ = reg.gauge("htor_live_pipeline_state", {{"state", "running"}});
  state_finished_ = reg.gauge("htor_live_pipeline_state", {{"state", "finished"}});
  state_failed_ = reg.gauge("htor_live_pipeline_state", {{"state", "failed"}});
}

void Pipeline::set_state(State state) {
  state_running_.set(state == State::Running ? 1 : 0);
  state_finished_.set(state == State::Finished ? 1 : 0);
  state_failed_.set(state == State::Failed ? 1 : 0);
}

PipelineResult Pipeline::run(const std::vector<std::string>& update_paths,
                             ThreadPool& epoch_pool, const EpochCallback& on_epoch) {
  OBS_SPAN("live.run");
  set_state(State::Running);
  try {
    PipelineResult result = feed(update_paths, epoch_pool, on_epoch);
    set_state(State::Finished);
    return result;
  } catch (...) {
    set_state(State::Failed);
    throw;
  }
}

PipelineResult Pipeline::feed(const std::vector<std::string>& update_paths,
                              ThreadPool& epoch_pool, const EpochCallback& on_epoch) {
  PipelineResult result;
  routes_.set(static_cast<std::int64_t>(census_.rib().size()));

  std::uint64_t last_epoch_applied = 0;
  auto emit_epoch = [&] {
    OBS_SPAN("live.epoch");
    const EpochReport epoch = census_.recompute(epoch_pool);
    // Publish the closing epoch's churn, then start the next epoch's sets
    // from empty — the gauges always describe the last *completed* epoch.
    churn_ases_.set(static_cast<std::int64_t>(epoch.churn_ases));
    churn_prefixes_.set(static_cast<std::int64_t>(epoch.churn_prefixes));
    churn_links_.set(static_cast<std::int64_t>(epoch.churn_links));
    census_.reset_epoch_churn();
    ++result.epochs;
    epochs_total_.inc();
    last_epoch_applied = result.applied;
    staleness_.set(0);
    if (on_epoch) on_epoch(epoch);
  };

  auto stop_requested = [this] { return stop_.load(std::memory_order_acquire); };
  for (const std::string& path : update_paths) {
    if (stop_requested()) break;
    mrt::MrtStreamReader stream(path);
    while (!stop_requested()) {
      const auto raw = stream.next_update();
      if (!raw) break;
      ++result.records;
      records_total_.inc();
      mrt::Record record =
          mrt::decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body);
      const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record.body);
      if (msg == nullptr) continue;  // next_update() filtered; defensive

      const ApplyStats before = census_.rib().stats();
      census_.apply(record.timestamp, *msg);
      ++result.applied;
      updates_total_.inc();
      const ApplyStats& after = census_.rib().stats();
      announces_total_.inc(after.announced - before.announced);
      withdraws_total_.inc(after.withdrawn - before.withdrawn);
      replaces_total_.inc(after.replaced - before.replaced);
      routes_.set(static_cast<std::int64_t>(census_.rib().size()));
      staleness_.set(static_cast<std::int64_t>(result.applied - last_epoch_applied));
      if (config_.epoch_every > 0 && result.applied % config_.epoch_every == 0) emit_epoch();
    }
    result.skipped += stream.updates_skipped();
    skipped_total_.inc(stream.updates_skipped());
  }
  result.stopped = stop_requested();
  if (!result.stopped && (result.applied > last_epoch_applied || result.epochs == 0)) {
    emit_epoch();
  }
  return result;
}

}  // namespace htor::live
