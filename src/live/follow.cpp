#include "live/follow.hpp"

#include <utility>

#include "mrt/stream_reader.hpp"
#include "snapshot/query.hpp"

namespace htor::live {

namespace {

IncrementalCensus build_census(const std::string& rib_path, ThreadPool& pool,
                               const rpsl::CommunityDictionary& dict,
                               const core::InferenceConfig& inference) {
  return IncrementalCensus(core::load_rib(rib_path, pool), dict, inference, rib_path,
                           mrt::rib_epoch(rib_path));
}

/// The message a failure carries, for the degraded /v1/healthz body.
std::string what_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

FollowService::FollowService(const std::string& rib_path, const std::string& irr_path,
                             std::vector<std::string> update_paths, FollowConfig config)
    : update_paths_(std::move(update_paths)),
      config_(config),
      census_pool_(config.jobs),
      dict_(rpsl::load_dictionary(irr_path)),
      census_(build_census(rib_path, census_pool_, dict_, config.inference)),
      // Epoch 0 is the seed RIB's census: the daemon is never up without a
      // servable index, exactly like the snapshot-file constructor.
      daemon_(snapshot::QueryIndex(census_.recompute(census_pool_).snap), config.daemon),
      pipeline_(census_, config.pipeline),
      epoch_age_metric_(obs::MetricsRegistry::global().callback(
          "htor_live_epoch_age_seconds", {}, obs::MetricsRegistry::Kind::Gauge, [this] {
            std::lock_guard<std::mutex> lock(mutex_);
            return static_cast<std::int64_t>(std::chrono::duration_cast<std::chrono::seconds>(
                                                 std::chrono::steady_clock::now() - last_publish_)
                                                 .count());
          })) {}

FollowService::~FollowService() { stop(); }

void FollowService::start() {
  if (started_) return;
  daemon_.start();
  started_ = true;
  // lint: allow(naked-thread) dedicated pipeline driver; joined in stop()
  // and wait() before any member it touches is destroyed
  runner_ = std::thread([this] { run_pipeline(); });
}

void FollowService::run_pipeline() {
  try {
    PipelineResult result = pipeline_.run(update_paths_, census_pool_, [this](const EpochReport& epoch) {
      // Build the index outside any daemon lock, then swap: the publish
      // cost the daemon's readers see is one pointer assignment.
      snapshot::QueryIndex index(epoch.snap);
      daemon_.swap_index(std::move(index));
      std::lock_guard<std::mutex> lock(mutex_);
      ++epochs_published_;
      last_publish_ = std::chrono::steady_clock::now();
    });
    std::lock_guard<std::mutex> lock(mutex_);
    result_ = result;
  } catch (...) {
    // The daemon keeps serving the last good epoch but reports itself
    // degraded; the result still says how far the feed got before it failed.
    std::exception_ptr error = std::current_exception();
    daemon_.set_degraded(what_of(error));
    std::lock_guard<std::mutex> lock(mutex_);
    pipeline_error_ = std::move(error);
    result_.applied = census_.applied();
    result_.epochs = epochs_published_;
  }
}

void FollowService::wait() {
  if (runner_.joinable()) runner_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline_error_ != nullptr) {
    std::exception_ptr error = std::exchange(pipeline_error_, nullptr);
    std::rethrow_exception(error);
  }
}

void FollowService::stop() {
  pipeline_.request_stop();
  if (runner_.joinable()) runner_.join();
  if (started_) daemon_.stop();
}

std::uint64_t FollowService::epochs_published() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epochs_published_;
}

PipelineResult FollowService::result() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return result_;
}

}  // namespace htor::live
