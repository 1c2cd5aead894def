// Flatten: reshapes (N, ...) to (N, prod(...)). The bridge between the
// convolutional stack and the fully connected head. The rvalue overloads
// reshape the tensor they are handed instead of copying it.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace prionn::nn {

class Flatten : public Layer {
 public:
  std::string kind() const override { return "flatten"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward(Tensor&& grad_output) override;
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

 private:
  Shape input_shape_;
};

}  // namespace prionn::nn
