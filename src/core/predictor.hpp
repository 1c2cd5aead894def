// The PRIONN predictor facade: data mapping + three classifier heads
// (runtime minutes, total bytes read, total bytes written) trained on
// completed jobs and queried at submission time. Bandwidths are derived
// from the predicted totals and the predicted runtime, exactly as in
// section 3.2 of the paper.
#pragma once

#include <array>
#include <cmath>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/bins.hpp"
#include "core/model_zoo.hpp"
#include "core/script_image.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

struct PredictorOptions {
  ScriptImageOptions image;            // transform + grid size
  ModelKind model = ModelKind::kCnn2d;
  ModelPreset preset = ModelPreset::kFast;
  std::size_t runtime_bins = 960;      // one bin per minute (paper)
  std::size_t io_bins = 64;
  std::size_t word2vec_dimension = 4;  // paper's chosen size
  std::size_t epochs = 10;             // per (re)training event (paper)
  std::size_t batch_size = 32;
  double learning_rate = 3e-3;         // Adam
  double dropout = 0.05;
  bool predict_io = true;              // heads for bytes read/written
  /// Divergence guard forwarded to nn::FitOptions: a retrain whose global
  /// gradient L2 norm exceeds this throws nn::TrainingDiverged before the
  /// weights are touched (0 = off).
  double max_gradient_norm = 0.0;
  std::uint64_t seed = 1234;
};

struct JobPrediction {
  double runtime_minutes = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;

  // Bandwidths degrade to 0 for degenerate *or non-finite* inputs: a
  // NaN-poisoned runtime would otherwise satisfy none of the comparisons
  // yet still propagate NaN bandwidth into the IO-aware scheduler.
  double read_bandwidth() const noexcept {
    return safe_bandwidth(bytes_read);
  }
  double write_bandwidth() const noexcept {
    return safe_bandwidth(bytes_written);
  }

 private:
  double safe_bandwidth(double bytes) const noexcept {
    if (!std::isfinite(runtime_minutes) || runtime_minutes <= 0.0)
      return 0.0;
    const double bw = bytes / (runtime_minutes * 60.0);
    return std::isfinite(bw) ? bw : 0.0;
  }
};

/// Prediction plus the classifier's softmax confidence per head — an
/// IO-aware scheduler or the serving fallback chain can shed to
/// conservative estimates when the model is unsure (e.g. an unseen
/// script). This is what the one batch inference path returns; callers
/// that only want the value take `.value`.
struct ConfidentPrediction {
  JobPrediction value;
  double runtime_confidence = 0.0;  // max softmax probability, (0, 1]
  double read_confidence = 0.0;
  double write_confidence = 0.0;
};

class PrionnPredictor {
 public:
  explicit PrionnPredictor(PredictorOptions options = {});

  /// Word2vec needs a corpus-trained character embedding; call once before
  /// the first train() when the transform is kWord2Vec (no-op otherwise).
  void fit_embedding(const std::vector<std::string>& scripts);

  /// Install an already-trained embedding (checkpoint restore, or reusing
  /// the corpus embedding across the cold-retrain ablation).
  void set_embedding(embed::CharEmbedding embedding);

  /// Final per-head training losses of one train() call, for divergence
  /// monitoring by the serving layer's guards.
  struct TrainReport {
    double runtime_loss = 0.0;
    double read_loss = 0.0;
    double write_loss = 0.0;
  };

  /// (Re)train on completed jobs. Warm start: repeated calls continue from
  /// the current weights and optimiser state (paper section 2.3: models
  /// are retrained rather than re-initialised). Throws
  /// nn::TrainingDiverged when the loss goes non-finite or the gradient
  /// norm guard trips; the weights touched so far may be partially
  /// updated, so callers that need atomicity train a snapshot copy
  /// (serve::PredictionService trains a shadow model).
  TrainReport train(const std::vector<trace::JobRecord>& completed_jobs);

  bool trained() const noexcept { return trained_; }
  std::size_t training_events() const noexcept { return training_events_; }

  /// THE inference path: one batched forward pass per head over all
  /// scripts, returning value + per-head confidence for each. Every other
  /// predict entry point (the single-item wrappers below, both online
  /// trainers, the fallback chain, the serving subsystem) funnels through
  /// here, so batched and sequential replay are the same arithmetic.
  std::vector<ConfidentPrediction> predict_batch(
      std::span<const std::string> scripts);

  /// Same forward pass over an already-mapped batch tensor (leading axis
  /// N). The serving layer's encoding cache assembles batches from cached
  /// per-script samples and skips the data-mapping stage entirely.
  std::vector<ConfidentPrediction> predict_batch_mapped(
      const tensor::Tensor& batch);

  /// Map one script to the sample tensor predict_batch_mapped() expects
  /// (shape (channels, rows, cols) for the 2-D models, (channels, length)
  /// for 1-D) — the unit the serving encoding cache stores.
  tensor::Tensor map_sample(std::string_view script) const;

  // Thin single-item / value-only wrappers over predict_batch().
  JobPrediction predict(const std::string& script);
  std::vector<JobPrediction> predict(const std::vector<std::string>& scripts);
  ConfidentPrediction predict_with_confidence(const std::string& script);

  const PredictorOptions& options() const noexcept { return options_; }
  const ScriptImageMapper& mapper() const;
  const RuntimeBins& runtime_bins() const noexcept { return runtime_bins_; }
  const IoBins& io_bins() const noexcept { return io_bins_; }

  /// Checkpointing: persist the full predictor — options, embedding,
  /// network weights, dropout RNG trajectories and Adam moments — so a
  /// scheduler restart resumes not just predictions but the *training
  /// trajectory* bit-exactly (save → load → retrain equals never having
  /// restarted). save(os) followed by load(is) then save(os2) produces
  /// identical bytes.
  void save(std::ostream& os) const;
  static PrionnPredictor load(std::istream& is);

 private:
  tensor::Tensor map_batch(std::span<const std::string> scripts) const;
  void ensure_mapper();

  PredictorOptions options_;
  RuntimeBins runtime_bins_;
  IoBins io_bins_;
  std::optional<ScriptImageMapper> mapper_;
  embed::CharEmbedding embedding_;

  /// One classifier head: its network and its optimiser state.
  struct Head {
    nn::Network net;
    nn::Adam opt;
  };
  /// Heads in use: runtime alone, or runtime, bytes read, bytes written.
  std::size_t head_count() const noexcept {
    return options_.predict_io ? 3 : 1;
  }
  std::array<Head, 3> heads_;  // runtime, read, write
  bool trained_ = false;
  std::size_t training_events_ = 0;
};

}  // namespace prionn::core
