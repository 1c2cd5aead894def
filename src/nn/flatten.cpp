#include "nn/flatten.hpp"

#include <istream>
#include <ostream>
#include <utility>

namespace prionn::nn {

Shape Flatten::output_shape(const Shape& input) const {
  std::size_t n = 1;
  for (const std::size_t d : input) n *= d;
  return {n};
}

Tensor Flatten::forward(const Tensor& input, bool training) {
  return forward(Tensor(input), training);
}

Tensor Flatten::forward(Tensor&& input, bool /*training*/) {
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  input.reshape({batch, input.size() / batch});
  return std::move(input);
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return backward(Tensor(grad_output));
}

Tensor Flatten::backward(Tensor&& grad_output) {
  grad_output.reshape(input_shape_);
  return std::move(grad_output);
}

void Flatten::save(std::ostream& /*os*/) const {}
std::unique_ptr<Layer> Flatten::load(std::istream& /*is*/) {
  return std::make_unique<Flatten>();
}

}  // namespace prionn::nn
