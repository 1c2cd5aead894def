// The paper's online training protocol (section 2.3): predictions happen
// at submission time; after every 100 submissions the model is retrained
// (warm start) on the 500 most recently *completed* jobs, so knowledge is
// retained across training events while the model tracks the workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "core/predictor.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

/// The paper's §2.3 protocol parameters, shared by every consumer of the
/// online cadence: ProtocolCursor (and through it OnlineTrainer,
/// serve::ServingSession and the benches' random-forest baseline) and
/// serve::PredictionService. One definition, one validation, one rule.
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

  /// The retrain rule: never before the first completion; untrained, once
  /// `min_initial_completions` jobs have completed (after a rejected
  /// first attempt, only once a full interval has passed since it);
  /// trained, every `retrain_interval` submissions.
  bool due(std::size_t completions, std::size_t since_train, bool trained,
           bool rejected) const;
};

/// The §2.3 clock over a completed-jobs trace (sorted by submit time):
/// jobs complete in end_time order as the submission clock passes their
/// end times, and retrains fall due by OnlineProtocolOptions::due. Every
/// sequential replay loop steps one of these, so all of them see the
/// same completions in the same order and retrain at the same
/// submissions.
class ProtocolCursor {
 public:
  /// `jobs` must outlive the cursor.
  ProtocolCursor(const std::vector<trace::JobRecord>& jobs,
                 const OnlineProtocolOptions& protocol);

  /// Advance the clock to job i's submission; returns the indices of the
  /// jobs that completed since the previous call, in completion order.
  std::span<const std::size_t> arrive(std::size_t i);
  /// Job i was submitted: it is in flight and counts toward the interval.
  void submit(std::size_t i);
  bool due(bool trained, bool rejected) const {
    return protocol_.due(completed_.size(), since_train_, trained,
                         rejected);
  }
  /// A retrain ran `since_train` submissions ago (0: just now; a resumed
  /// checkpoint passes its recovery value).
  void retrained(std::size_t since_train = 0) { since_train_ = since_train; }
  /// The last min(n, completions) completed indices, oldest first.
  std::span<const std::size_t> recent(std::size_t n) const;

 private:
  struct LaterEnd {
    const std::vector<trace::JobRecord>* jobs;
    bool operator()(std::size_t a, std::size_t b) const {
      return (*jobs)[a].end_time > (*jobs)[b].end_time;
    }
  };

  const std::vector<trace::JobRecord>& jobs_;
  OnlineProtocolOptions protocol_;
  std::priority_queue<std::size_t, std::vector<std::size_t>, LaterEnd>
      in_flight_;
  std::vector<std::size_t> completed_;  // indices, in completion order
  std::size_t since_train_ = 0;
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
