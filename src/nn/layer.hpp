// Layer interface of the mini deep-learning framework that stands in for
// the paper's Python DL stack. Layers process whole mini-batches: the
// leading tensor dimension is always the batch (N, ...). backward() must be
// called after forward() on the same batch and accumulates parameter
// gradients (callers zero them between optimiser steps).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace prionn::nn {

using tensor::Shape;
using tensor::Tensor;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Type tag used by serialisation ("dense", "conv2d", ...).
  virtual std::string kind() const = 0;

  /// Shape of one output sample given one input sample's shape (no batch
  /// dimension). Throws if the input shape is incompatible.
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Forward pass over a batch; `training` toggles dropout-style behaviour.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Forward pass over a batch the caller no longer needs: a layer that
  /// caches its input for backward() may keep `input` itself instead of a
  /// copy. Network::forward hands every activation over this way.
  virtual Tensor forward(Tensor&& input, bool training) {
    return forward(static_cast<const Tensor&>(input), training);
  }

  /// Backward pass: gradient w.r.t. this layer's input, given gradient
  /// w.r.t. its output. Accumulates into parameter gradients.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Backward pass over a gradient the caller no longer needs: an
  /// element-wise layer may write its input gradient into `grad_output`'s
  /// buffer. Network's backward hands every gradient over this way.
  virtual Tensor backward(Tensor&& grad_output) {
    return backward(static_cast<const Tensor&>(grad_output));
  }

  /// backward() for a layer whose input gradient nobody reads (the first
  /// layer under Network::train_batch): accumulates the same parameter
  /// gradients and may skip the input gradient.
  virtual void backward_parameters(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Trainable parameters and their gradient buffers (parallel vectors).
  virtual std::vector<Tensor*> parameters() { return {}; }
  virtual std::vector<Tensor*> gradients() { return {}; }

  void zero_gradients() {
    for (Tensor* g : gradients()) g->fill(0.0f);
  }

  /// Serialise parameters + hyper-parameters (shape config).
  virtual void save(std::ostream& os) const = 0;

  /// Number of trainable scalars, for model summaries.
  std::size_t parameter_count() {
    std::size_t n = 0;
    for (Tensor* p : parameters()) n += p->size();
    return n;
  }
};

}  // namespace prionn::nn
