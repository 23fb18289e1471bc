// The live update pipeline: reader -> decoder -> apply as three overlapping
// stages connected by bounded SPSC rings.
//
//   reader (thread)    scans BGP4MP frames off the update files with
//                      MrtStreamReader::next_update() — header-only skip of
//                      everything else — and pushes raw frames.
//   decoder (thread)   decodes frame bodies into Bgp4mpMessages.
//   apply (caller)     folds each message into the IncrementalCensus and
//                      cuts epochs.
//
// This replaces the batch pipeline's shard_map barriers with *backpressure*:
// a full ring stalls its producer (bounded memory, no unbounded queue), an
// empty ring stalls its consumer, and at no point does a stage wait for a
// whole batch.  The shape is the ISSUE's streaming-stages-over-bounded-
// queues answer to whole-RIB recomputation being the bottleneck.
//
// Determinism: the rings are SPSC, so the apply stage sees messages in
// exactly file order for ANY ring capacity and ANY thread interleaving, and
// epochs are cut by applied-message COUNT (never time).  Hence a given
// (RIB, update stream) prefix yields byte-identical census state and epoch
// snapshots at ring capacity 2 and 4096, --jobs 1 and 4 — which
// test_live pins as the acceptance matrix.
//
// Error discipline: a DecodeError anywhere (framing in the reader, message
// bytes in the decoder, semantic validation in apply) stops the pipeline,
// joins both stages, and rethrows from run() — same strictness as batch
// ingest.  request_stop() is the cooperative cancel used by serve --follow
// shutdown; it aborts cleanly without an exception.
//
// Metrics (obs::MetricsRegistry::global(), all scraped via GET /metrics):
//   htor_live_records_total / htor_live_skipped_records_total  reader
//   htor_live_updates_total, htor_live_announces_total,
//   htor_live_withdraws_total, htor_live_replaces_total        apply
//   htor_live_push_waits_total{stage=}                         backpressure
//   htor_live_ring_depth{stage=}                               occupancy
//   htor_live_routes, htor_live_staleness_updates              freshness
//   htor_live_epochs_total + OBS_SPAN("live.epoch")            epochs
//   htor_live_epoch_churn{kind=as|prefix|link}                 last epoch's churn
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
  /// Slots per inter-stage ring (rounded up to a power of two, floored at
  /// 2).  Any value yields identical output; capacity trades memory for
  /// fewer backpressure stalls.
  std::size_t ring_capacity = 1024;
  /// Cut an epoch every N applied messages; 0 = only the final epoch.
  /// Counted in messages, never time, so epoch contents are reproducible.
  std::uint64_t epoch_every = 0;
  /// Emit a final epoch when the stream ends (skipped when the last
  /// counted epoch already covers every applied message).
  bool final_epoch = true;
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

  /// Stream every update file, in order, through the three stages; apply
  /// runs on the calling thread.  `epoch_pool` is used only for epoch
  /// recomputes.  `on_epoch` (optional) receives each cut epoch, in order.
  /// Not reentrant; one run() at a time.
  PipelineResult run(const std::vector<std::string>& update_paths, ThreadPool& epoch_pool,
                     const EpochCallback& on_epoch = {});

  /// Cooperative cancel, callable from any thread: stages drain out and
  /// run() returns with `stopped = true` (no exception, no final epoch).
  void request_stop() { stop_.store(true, std::memory_order_release); }

 private:
  IncrementalCensus& census_;
  PipelineConfig config_;
  std::atomic<bool> stop_{false};

  // Resolved once; incremented from exactly one stage each (the sharded
  // cells make cross-scrape reads safe).
  obs::Counter records_total_;
  obs::Counter skipped_total_;
  obs::Counter updates_total_;
  obs::Counter announces_total_;
  obs::Counter withdraws_total_;
  obs::Counter replaces_total_;
  obs::Counter epochs_total_;
  obs::Counter push_waits_decode_;
  obs::Counter push_waits_apply_;
  obs::Gauge routes_;
  obs::Gauge staleness_;
  obs::Gauge churn_ases_;
  obs::Gauge churn_prefixes_;
  obs::Gauge churn_links_;
};

}  // namespace htor::live
