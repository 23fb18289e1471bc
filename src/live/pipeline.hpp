// The live update feed: one loop on the calling thread.
//
// For each update file, in order, MrtStreamReader::next_update() reads the
// next BGP4MP frame (header-only skip of everything else),
// decode_record_body() decodes it, IncrementalCensus::apply() folds it in,
// and an epoch is cut every `epoch_every` applied messages.  Reading and
// decoding cost under a microsecond per update against an epoch's full
// recompute, so there are no stages worth overlapping: one loop; epochs cut
// by count.
//
// Determinism: messages are applied in file order and epochs are cut by
// applied-message COUNT (never time), so a given (RIB, update stream)
// prefix yields byte-identical census state and epoch snapshots at any
// --jobs value — which test_live pins against an independent replay.
//
// Error discipline: a DecodeError anywhere (framing, message bytes,
// semantic validation in apply) propagates straight out of run(), after
// exactly the messages before the bad record were applied — same
// strictness as batch ingest.  request_stop() is the cooperative cancel
// used by serve --follow shutdown; it is polled once per message and ends
// the run cleanly without an exception.
//
// Metrics (obs::MetricsRegistry::global(), all scraped via GET /metrics):
//   htor_live_records_total / htor_live_skipped_records_total  frames read
//   htor_live_updates_total, htor_live_announces_total,
//   htor_live_withdraws_total, htor_live_replaces_total        apply
//   htor_live_routes, htor_live_staleness_updates              freshness
//   htor_live_epochs_total + OBS_SPAN("live.epoch")            epochs
//   htor_live_epoch_churn{kind=as|prefix|link}                 last epoch's churn
//   htor_live_pipeline_state{state=running|finished|failed}    0/1 run state
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "live/incremental_census.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace htor::live {

struct PipelineConfig {
  /// Cut an epoch every N applied messages; 0 = only the final epoch.
  /// Counted in messages, never time, so epoch contents are reproducible.
  /// The final epoch is always cut unless the last counted epoch already
  /// covers every applied message.
  std::uint64_t epoch_every = 0;
};

struct PipelineResult {
  std::uint64_t records = 0;  ///< BGP4MP frames read (after header skips)
  std::uint64_t skipped = 0;  ///< non-update frames skipped by the reader
  std::uint64_t applied = 0;  ///< messages applied to the census
  std::uint64_t epochs = 0;   ///< epochs emitted
  bool stopped = false;       ///< true when request_stop() cut the run short
};

class Pipeline {
 public:
  using EpochCallback = std::function<void(const EpochReport&)>;

  /// Borrows `census`; the caller keeps it (and reads its final state)
  /// after run() returns.
  explicit Pipeline(IncrementalCensus& census, PipelineConfig config = {});

  /// Read, decode and apply every update file, in order, on the calling
  /// thread.  `epoch_pool` is used only for epoch recomputes.  `on_epoch`
  /// (optional) receives each cut epoch, in order.  Not reentrant; one
  /// run() at a time.
  PipelineResult run(const std::vector<std::string>& update_paths, ThreadPool& epoch_pool,
                     const EpochCallback& on_epoch = {});

  /// Cooperative cancel, callable from any thread: run() returns before its
  /// next message with `stopped = true` (no exception, no final epoch).
  void request_stop() { stop_.store(true, std::memory_order_release); }

 private:
  enum class State { Running, Finished, Failed };

  PipelineResult feed(const std::vector<std::string>& update_paths, ThreadPool& epoch_pool,
                      const EpochCallback& on_epoch);
  void set_state(State state);

  IncrementalCensus& census_;
  PipelineConfig config_;
  std::atomic<bool> stop_{false};

  obs::Counter records_total_;
  obs::Counter skipped_total_;
  obs::Counter updates_total_;
  obs::Counter announces_total_;
  obs::Counter withdraws_total_;
  obs::Counter replaces_total_;
  obs::Counter epochs_total_;
  obs::Gauge routes_;
  obs::Gauge staleness_;
  obs::Gauge churn_ases_;
  obs::Gauge churn_prefixes_;
  obs::Gauge churn_links_;
  obs::Gauge state_running_;
  obs::Gauge state_finished_;
  obs::Gauge state_failed_;
};

}  // namespace htor::live
