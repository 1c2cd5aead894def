// Losses. The paper's models are classifiers (softmax over runtime / IO
// bins), so softmax cross-entropy is the only loss.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "tensor/tensor.hpp"

namespace prionn::nn {

/// Thrown when training numerically diverges: a non-finite loss (NaN
/// inputs, overflowed logits) or an exploding gradient norm. This is an
/// environmental/data fault, not a programming error, so unlike the
/// PRIONN_CHECK contracts it is recoverable — the online serving layer
/// catches it and rolls the model back to the last good snapshot
/// (DESIGN.md section 9). Thrown *before* any parameter update, so the
/// network weights are never poisoned by the diverging step.
class TrainingDiverged : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct LossResult {
  double value = 0.0;      // mean loss over the batch
  tensor::Tensor grad;     // dLoss/dLogits, same shape as the logits
};

/// Softmax + cross-entropy fused for numerical stability. `logits` is
/// (N x C); `labels` holds N class indices in [0, C).
LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::uint32_t> labels);

/// Per-row softmax probabilities of (N x C) logits (prediction path).
tensor::Tensor softmax_probabilities(const tensor::Tensor& logits);

}  // namespace prionn::nn
