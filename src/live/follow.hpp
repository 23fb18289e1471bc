// FollowService: the continuous-census serving loop behind both
// `hybridtor serve --follow` and the live e2e tests.
//
//   1. Load the seed RIB and IRR dictionary, build the IncrementalCensus,
//      cut epoch 0 (stamped with mrt::rib_epoch, so its snapshot equals the
//      batch `census --snapshot-out` one), and start a QueryDaemon over its
//      in-memory QueryIndex.
//   2. Run the live Pipeline over the update files on a background thread.
//   3. On every cut epoch, encode the census snapshot to a fresh QueryIndex
//      and swap_index() it into the daemon — PR 7's read-validate-swap with
//      the file read elided.  In-flight requests keep the state they
//      pinned; no connection is ever dropped by a swap.
//
// Staleness semantics: the daemon's answers lag the stream by at most
// `epoch_every` applied updates (htor_live_staleness_updates gauges the
// current lag; htor_daemon_epoch ticks on every publish).  When the stream
// is exhausted the last epoch has zero staleness and the daemon keeps
// serving it until stop().  When the feed fails instead, the daemon keeps
// serving the last epoch and /v1/healthz answers 503 "degraded" with the
// error, so a frozen epoch never looks healthy.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "live/incremental_census.hpp"
#include "live/pipeline.hpp"
#include "obs/metrics.hpp"
#include "rpsl/community_dict.hpp"
#include "server/daemon.hpp"
#include "util/thread_pool.hpp"

namespace htor::live {

struct FollowConfig {
  server::DaemonConfig daemon;
  PipelineConfig pipeline;
  core::InferenceConfig inference;
  /// Jobs for census work (initial census + epoch recomputes).
  std::size_t jobs = 1;
};

class FollowService {
 public:
  /// Loads the RIB and IRR file eagerly and builds epoch 0; throws on any
  /// load/parse failure, never a half-started service.
  FollowService(const std::string& rib_path, const std::string& irr_path,
                std::vector<std::string> update_paths, FollowConfig config = {});
  ~FollowService();

  FollowService(const FollowService&) = delete;
  FollowService& operator=(const FollowService&) = delete;

  /// Start the HTTP daemon, then the pipeline thread.
  void start();

  /// Block until the update stream is exhausted (the daemon keeps serving).
  /// Rethrows a pipeline failure (e.g. DecodeError mid-stream).
  void wait();

  /// Stop the pipeline (cooperative) and the daemon.  Idempotent.
  void stop();

  std::uint16_t port() const { return daemon_.port(); }
  server::QueryDaemon& daemon() { return daemon_; }
  const IncrementalCensus& census() const { return census_; }

  std::uint64_t epochs_published() const;
  /// The pipeline's result once it has finished.  After a failed feed only
  /// `applied` and `epochs` are set: how far the stream got.
  PipelineResult result() const;

 private:
  void run_pipeline();

  std::vector<std::string> update_paths_;
  FollowConfig config_;
  ThreadPool census_pool_;
  rpsl::CommunityDictionary dict_;
  IncrementalCensus census_;
  server::QueryDaemon daemon_;
  Pipeline pipeline_;

  // lint: allow(naked-thread) dedicated pipeline driver; joined in stop()
  // (and by the destructor) before any member it uses is torn down
  std::thread runner_;
  bool started_ = false;

  mutable std::mutex mutex_;  ///< guards the fields below
  std::uint64_t epochs_published_ = 0;
  PipelineResult result_;
  std::exception_ptr pipeline_error_;
  /// When the currently-served epoch was swapped in (epoch 0 = construction).
  std::chrono::steady_clock::time_point last_publish_ = std::chrono::steady_clock::now();

  /// htor_live_epoch_age_seconds: staleness of the served epoch in wall
  /// seconds — the observable side of the --epoch-every bound.  Registered
  /// last so it unregisters first, before anything it reads is torn down.
  obs::CallbackMetric epoch_age_metric_;
};

}  // namespace htor::live
