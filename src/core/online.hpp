// The paper's online training protocol (section 2.3): predictions happen
// at submission time; after every 100 submissions the model is retrained
// (warm start) on the 500 most recently *completed* jobs, so knowledge is
// retained across training events while the model tracks the workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/predictor.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

/// The paper's §2.3 protocol parameters, shared by every consumer of the
/// online cadence: OnlineTrainer and serve::PredictionService. One
/// definition, one validation.
struct OnlineProtocolOptions {
  std::size_t retrain_interval = 100;  // submissions between retrains
  std::size_t train_window = 500;      // most recent completions used
  std::size_t embedding_corpus = 500;  // scripts for the one-off w2v fit
  /// Completions needed before the first training event.
  std::size_t min_initial_completions = 100;

  /// Throws std::invalid_argument for parameters the protocol cannot run
  /// with (zero interval/window/corpus). Called by every consumer at
  /// construction, so a bad configuration fails before any replay work.
  void validate(const char* who) const;
};

struct OnlineOptions : OnlineProtocolOptions {
  PredictorOptions predictor;
  /// Ablation switch: when true, the model is re-initialised before every
  /// retraining instead of warm-started. The paper argues warm starts are
  /// what lets a 500-job window work ("learned parameters pass to
  /// subsequent models"); this flag lets the claim be measured.
  bool reinitialize_on_retrain = false;
};

struct OnlineResult {
  /// Parallel to the input jobs; nullopt while the model was still
  /// untrained at that job's submission.
  std::vector<std::optional<JobPrediction>> predictions;
  std::size_t training_events = 0;
  /// Monotonic (steady-clock) totals, accumulated from
  /// util::Timer::now_ns deltas so an NTP slew mid-replay cannot skew
  /// them; also exported as prionn_online_{train,predict}_seconds gauges.
  std::uint64_t train_ns = 0;    // total time in fit_embedding()+train()
  std::uint64_t predict_ns = 0;  // total time in predict_batch()
  double train_seconds = 0.0;    // train_ns in seconds, for convenience
  double predict_seconds = 0.0;  // predict_ns in seconds

  /// Indices of jobs that actually received a prediction.
  std::vector<std::size_t> predicted_indices() const;
};

/// Replays a completed-jobs trace (sorted by submit time, canceled jobs
/// already removed) through the online protocol.
class OnlineTrainer {
 public:
  explicit OnlineTrainer(OnlineOptions options = {});

  OnlineResult run(const std::vector<trace::JobRecord>& jobs);

  /// Access the predictor after run() (e.g. for follow-up predictions).
  PrionnPredictor& predictor() noexcept { return predictor_; }

 private:
  OnlineOptions options_;
  PrionnPredictor predictor_;
};

}  // namespace prionn::core
