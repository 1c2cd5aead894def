// Sequential network container with a classifier-oriented training API:
// fit() runs mini-batch epochs against softmax cross-entropy (the paper's
// models are classifiers over value bins), predict_classes()/
// predict_probabilities() serve inference, and repeated fit() calls realise
// the paper's warm-start retraining protocol.
//
// The epoch/mini-batch loop itself lives in the lockstep driver
// (nn/lockstep.hpp), which steps N networks over one shuffled order: each
// mini-batch is gathered once, and when every network starts with a
// Conv2d of one geometry (the PRIONN heads), layer 0 runs as one stacked
// product for all of them on the caller's lanes before the networks fork,
// sharing those lanes, through layers 1..L, their losses, gradient-norm
// guards and optimiser steps. fit() and train_batch() are its one-network
// calls, so a network trained alone and one trained in lockstep take the
// same steps bit for bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"

namespace prionn::obs {
class Counter;
}  // namespace prionn::obs

namespace prionn::nn {

struct FitOptions {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  bool shuffle = true;
  std::uint64_t shuffle_seed = 1;
  double gradient_clip = 0.0;  // 0 disables element-wise clipping
  /// Divergence guard: when > 0, a mini-batch whose global gradient L2
  /// norm exceeds this throws TrainingDiverged *before* the optimiser
  /// step, leaving the weights untouched (0 = off).
  double max_gradient_norm = 0.0;
  /// Learning-rate schedule: the optimiser's rate is multiplied by this
  /// factor after every epoch (1.0 = constant). The base rate is restored
  /// when fit() returns, so warm-start refits see the same schedule.
  double lr_decay_per_epoch = 1.0;
  /// Early stopping: stop when the epoch loss fails to improve by at
  /// least `min_loss_delta` for `patience` consecutive epochs (0 = off).
  std::size_t early_stop_patience = 0;
  double min_loss_delta = 1e-4;
};

struct FitReport {
  std::vector<double> epoch_loss;  // mean cross-entropy per epoch
  double final_loss() const {
    return epoch_loss.empty() ? 0.0 : epoch_loss.back();
  }
};

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Append a layer (builder style): net.add(std::make_unique<Dense>(...)).
  Network& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Network& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t depth() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  std::size_t parameter_count() const;

  /// Shape of one output sample for one input sample shape.
  Shape output_shape(Shape input) const;

  /// Forward over a batch; training toggles dropout.
  Tensor forward(const Tensor& batch, bool training = false);

  /// Backward from a loss gradient; returns gradient w.r.t. the input batch.
  Tensor backward(const Tensor& grad_output);

  void zero_gradients();
  std::vector<Tensor*> parameters() const;
  std::vector<Tensor*> gradients() const;

  /// Train as a classifier: inputs is the batch tensor (N leading), labels
  /// are class indices. Warm start: calling fit again continues from the
  /// current weights (and the optimiser keeps its state).
  FitReport fit(const Tensor& inputs, std::span<const std::uint32_t> labels,
                Optimizer& opt, const FitOptions& options = {});

  /// One gradient step on one mini-batch (one epoch of one unshuffled
  /// batch); returns the batch loss. Throws TrainingDiverged on a
  /// non-finite loss or (when max_gradient_norm > 0) an exploding gradient,
  /// before any weight is updated.
  double train_batch(const Tensor& inputs,
                     std::span<const std::uint32_t> labels, Optimizer& opt,
                     double gradient_clip = 0.0,
                     double max_gradient_norm = 0.0);

  /// Argmax class per sample.
  std::vector<std::uint32_t> predict_classes(const Tensor& inputs);
  /// Softmax probability rows (N x C).
  Tensor predict_probabilities(const Tensor& inputs);

  /// Argmax class plus its softmax probability, per sample. One forward
  /// pass and no N x C probability tensor — the serving batch path wants
  /// both the class and a confidence without paying for the full softmax
  /// materialisation.
  struct Top1 {
    std::uint32_t cls = 0;
    double probability = 0.0;  // max softmax probability, (0, 1]
  };
  std::vector<Top1> predict_top1(const Tensor& inputs);
  /// The same per-sample top-1 of an (N x C) logit batch.
  static std::vector<Top1> top1(const Tensor& logits);

  /// Fraction of samples whose argmax matches the label.
  double accuracy(const Tensor& inputs,
                  std::span<const std::uint32_t> labels);

  /// One-line structural summary for logs.
  std::string summary(const Shape& input_sample) const;

  void save(std::ostream& os) const;
  static Network load(std::istream& is);

 private:
  friend class Lockstep;

  /// Layers first..L-1 forward over `x`, each timed at its position.
  Tensor forward_layers(Tensor x, std::size_t first, bool training);

  /// Layers L-1..first backward from `grad_output`; returns the gradient
  /// w.r.t. layer `first`'s input, or (when !input_gradient) lets layer
  /// `first` skip it and returns an empty tensor.
  Tensor backward_layers(Tensor grad_output, std::size_t first,
                         bool input_gradient);

  /// The step after backward: element-wise clipping, the gradient-norm
  /// guard (throws TrainingDiverged before any weight moves) and the
  /// optimiser update.
  void apply_gradients(Optimizer& opt, double gradient_clip,
                       double max_gradient_norm);

  /// Per-layer timing counters, one forward/backward pair per position,
  /// named by position and kind (prionn_nn_forward_ns_total_00_conv2d).
  /// Resolved on the first timed pass after the layer list changes.
  struct LayerCounters {
    obs::Counter* forward = nullptr;
    obs::Counter* backward = nullptr;
  };
  const std::vector<LayerCounters>& layer_counters();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<LayerCounters> layer_counters_;
};

}  // namespace prionn::nn
