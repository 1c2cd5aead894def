// Trace replay through the concurrent PredictionService — the bridge
// between the figure benchmarks (which replay recorded traces) and the
// serving subsystem (which serves live submissions).
//
// Two modes:
//   - kDeterministic: the session drives the §2.3 retrain cadence itself
//     (flush() barrier + retrain_now() at exactly the submissions where
//     OnlineTrainer would train), so the replay is prediction-for-
//     prediction identical to the sequential trainer at a fixed seed —
//     micro-batched inference and the encoding cache change the wall
//     clock, never the arithmetic.
//   - kConcurrent: retraining runs on the service's background thread and
//     submissions never wait for it; which model generation serves a
//     given job depends on timing. This is the mode the serving latency
//     benchmark measures.
//
// Crash safety (deterministic mode): with a checkpoint path, every
// accepted retrain writes the live model and the replay cursor to a
// crash-safe checkpoint (core/checkpoint.hpp), and replay() resumes a
// half-replayed trace from it with prediction-for-prediction equivalence
// to an uninterrupted run. The kCrash fault point simulates process death
// right after a checkpoint write.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/serve/prediction_service.hpp"
#include "trace/job_record.hpp"

namespace prionn::core::serve {

enum class ReplayMode {
  kDeterministic,  // cadence barriers; equals OnlineTrainer bit-exactly
  kConcurrent,     // background retrain; inference never blocks on it
};

struct SessionOptions {
  ServiceOptions service;
  ReplayMode mode = ReplayMode::kDeterministic;
  /// Checkpoint file; empty disables checkpointing. Deterministic mode
  /// only (the constructor rejects it in concurrent mode).
  std::string checkpoint_path;
};

struct SessionResult {
  /// Parallel to the input jobs; every replayed job gets an answer (the
  /// fallback chain serves the pre-training prefix). Entries before
  /// `resume_index` belong to a previous incarnation and entries from
  /// `crash_index` on were never served: both are nullopt.
  std::vector<std::optional<ProvenancedPrediction>> predictions;
  std::size_t training_events = 0;
  std::uint64_t replay_ns = 0;  // wall time of the whole replay
  ServiceStats stats;

  /// Where replay() started from (primary / last-good / cold start) and
  /// why the primary was unusable, if it was.
  CheckpointSource resume_source = CheckpointSource::kNone;
  std::string resume_error;
  std::size_t resume_index = 0;  // first job replayed by this call

  /// The kCrash fault point fired after a checkpoint: replay() returned
  /// early, simulating process death. A fresh session resumes from the
  /// checkpoint.
  bool crashed = false;
  std::size_t crash_index = 0;

  /// OnlineResult-shaped view: the NN-served predictions, nullopt where
  /// the fallback chain answered — what the figure pipelines consume.
  std::vector<std::optional<JobPrediction>> nn_predictions() const;
};

class ServingSession {
 public:
  explicit ServingSession(SessionOptions options);

  /// Replay a completed-jobs trace (sorted by submit time) through the
  /// service: completions are fed to the training window as the
  /// submission clock passes their end times, by the same ProtocolCursor
  /// OnlineTrainer steps.
  /// May be called again to continue the protocol on a further trace
  /// segment. With a checkpoint path, resumes from the checkpoint first.
  SessionResult replay(const std::vector<trace::JobRecord>& jobs);

  PredictionService& service() noexcept { return *service_; }

 private:
  SessionOptions options_;
  std::unique_ptr<PredictionService> service_;
};

}  // namespace prionn::core::serve
