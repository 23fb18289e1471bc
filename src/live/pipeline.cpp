#include "live/pipeline.hpp"

#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "mrt/reader.hpp"
#include "mrt/stream_reader.hpp"
#include "obs/trace.hpp"
#include "util/spsc_ring.hpp"

namespace htor::live {

namespace {

/// One decoded update in flight between decoder and apply.
struct DecodedUpdate {
  std::uint32_t timestamp = 0;
  mrt::Bgp4mpMessage msg;
};

/// Stage backoff while a ring is full/empty: yield first (when the stages
/// outnumber free cores, the counterpart stage usually just hasn't been
/// scheduled yet), then sleep so a long stall doesn't burn a core.
void backoff(int& spins) {
  if (spins < 256) {
    ++spins;
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace

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
  push_waits_decode_ = reg.counter("htor_live_push_waits_total", {{"stage", "decode"}});
  push_waits_apply_ = reg.counter("htor_live_push_waits_total", {{"stage", "apply"}});
  routes_ = reg.gauge("htor_live_routes");
  staleness_ = reg.gauge("htor_live_staleness_updates");
  churn_ases_ = reg.gauge("htor_live_epoch_churn", {{"kind", "as"}});
  churn_prefixes_ = reg.gauge("htor_live_epoch_churn", {{"kind", "prefix"}});
  churn_links_ = reg.gauge("htor_live_epoch_churn", {{"kind", "link"}});
}

PipelineResult Pipeline::run(const std::vector<std::string>& update_paths,
                             ThreadPool& epoch_pool, const EpochCallback& on_epoch) {
  OBS_SPAN("live.run");
  PipelineResult result;
  routes_.set(static_cast<std::int64_t>(census_.rib().size()));

  SpscRing<mrt::RawFramedRecord> raw_ring(config_.ring_capacity);
  SpscRing<DecodedUpdate> decoded_ring(config_.ring_capacity);

  // Depth gauges are registered for the duration of the run and destroyed
  // (unregistered) before the rings they read — declared after them.
  auto& reg = obs::MetricsRegistry::global();
  std::vector<obs::CallbackMetric> depth_gauges;
  depth_gauges.push_back(reg.callback(
      "htor_live_ring_depth", {{"stage", "decode"}}, obs::MetricsRegistry::Kind::Gauge,
      [&raw_ring] { return static_cast<std::int64_t>(raw_ring.occupancy()); }));
  depth_gauges.push_back(reg.callback(
      "htor_live_ring_depth", {{"stage", "apply"}}, obs::MetricsRegistry::Kind::Gauge,
      [&decoded_ring] { return static_cast<std::int64_t>(decoded_ring.occupancy()); }));

  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto fail = [&](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error == nullptr) first_error = std::move(error);
    }
    stop_.store(true, std::memory_order_release);
  };

  // Block until a slot frees up, the run is stopped, or a stage failed.
  // The wait counter records *blocked pushes*, not spin iterations.
  auto push_blocking = [this](auto& ring, auto& item, const obs::Counter& waits) {
    int spins = 0;
    bool waited = false;
    while (!ring.try_push(item)) {
      if (stop_.load(std::memory_order_acquire)) return false;
      if (!waited) {
        waits.inc();
        waited = true;
      }
      backoff(spins);
    }
    return true;
  };
  auto pop_blocking = [this](auto& ring, auto& out) {
    int spins = 0;
    while (!ring.try_pop(out)) {
      if (ring.done() || stop_.load(std::memory_order_acquire)) return false;
      backoff(spins);
    }
    return true;
  };

  // Written by their owning stage before its ring closes, read after join.
  std::uint64_t records_read = 0;
  std::uint64_t records_skipped = 0;

  // lint: allow(naked-thread) dedicated reader stage; joined below before
  // run() returns on every path, including exceptions
  std::thread reader([&] {
    try {
      for (const std::string& path : update_paths) {
        mrt::MrtStreamReader stream(path);
        while (auto raw = stream.next_update()) {
          ++records_read;
          records_total_.inc();
          if (!push_blocking(raw_ring, *raw, push_waits_decode_)) {
            raw_ring.close();
            return;
          }
        }
        skipped_total_.inc(stream.updates_skipped());
        records_skipped += stream.updates_skipped();
      }
    } catch (...) {
      fail(std::current_exception());
    }
    raw_ring.close();
  });

  // lint: allow(naked-thread) dedicated decoder stage; joined below before
  // run() returns on every path, including exceptions
  std::thread decoder([&] {
    try {
      mrt::RawFramedRecord raw;
      while (pop_blocking(raw_ring, raw)) {
        mrt::Record record =
            mrt::decode_record_body(raw.timestamp, raw.type, raw.subtype, raw.body);
        auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record.body);
        if (msg == nullptr) continue;  // next_update() filtered; defensive
        DecodedUpdate item{record.timestamp, std::move(*msg)};
        if (!push_blocking(decoded_ring, item, push_waits_apply_)) break;
      }
    } catch (...) {
      fail(std::current_exception());
    }
    decoded_ring.close();
  });

  // Apply stage, on the calling thread.
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
  try {
    DecodedUpdate item;
    while (pop_blocking(decoded_ring, item)) {
      const ApplyStats before = census_.rib().stats();
      census_.apply(item.timestamp, item.msg);
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
    const bool stopped = stop_.load(std::memory_order_acquire);
    if (!stopped && config_.final_epoch &&
        (result.applied > last_epoch_applied || result.epochs == 0)) {
      emit_epoch();
    }
  } catch (...) {
    fail(std::current_exception());  // also sets stop_, unblocking the producers
  }

  reader.join();
  decoder.join();

  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }
  result.records = records_read;
  result.skipped = records_skipped;
  result.stopped = stop_.load(std::memory_order_acquire);
  return result;
}

}  // namespace htor::live
