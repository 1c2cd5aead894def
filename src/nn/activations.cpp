#include "nn/activations.hpp"

#include <istream>
#include <ostream>

#include "nn/sample_parallel.hpp"

namespace prionn::nn {

namespace {
// ReLU kernels over flat element ranges, out of line for the same reason
// as MaxPool2d's (nn/pool.cpp).
[[gnu::noinline]] void relu_range(const float* in, float* out,
                                  std::size_t lo, std::size_t hi) noexcept {
  for (std::size_t i = lo; i < hi; ++i) out[i] = in[i] < 0.0f ? 0.0f : in[i];
}

[[gnu::noinline]] void relu_grad_range(const float* in, const float* dy,
                                       float* dx, std::size_t lo,
                                       std::size_t hi) noexcept {
  for (std::size_t i = lo; i < hi; ++i) dx[i] = in[i] <= 0.0f ? 0.0f : dy[i];
}
}  // namespace

Tensor Relu::forward(const Tensor& input, bool /*training*/) {
  input_ = input;
  Tensor out(input.shape());
  const std::size_t batch = input.dim(0);
  const std::size_t per_sample = batch ? input.size() / batch : 0;
  for_each_sample(batch, per_sample, [&](std::size_t lo, std::size_t hi) {
    relu_range(input.data(), out.data(), lo * per_sample, hi * per_sample);
  });
  return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
  Tensor grad(grad_output.shape());
  const std::size_t batch = grad.dim(0);
  const std::size_t per_sample = batch ? grad.size() / batch : 0;
  for_each_sample(batch, per_sample, [&](std::size_t lo, std::size_t hi) {
    relu_grad_range(input_.data(), grad_output.data(), grad.data(),
                    lo * per_sample, hi * per_sample);
  });
  return grad;
}

void Relu::save(std::ostream& /*os*/) const {}
std::unique_ptr<Layer> Relu::load(std::istream& /*is*/) {
  return std::make_unique<Relu>();
}

}  // namespace prionn::nn
