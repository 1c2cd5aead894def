// Fully connected layer: y = x W^T + b, x is (N x in), W is (out x in).
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace prionn::nn {

class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);
  /// Deserialisation constructor: weights supplied verbatim.
  Dense(Tensor weight, Tensor bias);

  std::string kind() const override { return "dense"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_parameters(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

  std::size_t in_features() const noexcept { return weight_.dim(1); }
  std::size_t out_features() const noexcept { return weight_.dim(0); }
  const Tensor& weight() const noexcept { return weight_; }
  const Tensor& bias() const noexcept { return bias_; }

 private:
  Tensor weight_;       // (out x in)
  Tensor bias_;         // (out)
  Tensor grad_weight_;  // (out x in)
  Tensor grad_bias_;    // (out)
  Tensor input_;        // cached batch for backward
};

}  // namespace prionn::nn
