#include "nn/activations.hpp"

#include <istream>
#include <ostream>

#include "nn/sample_parallel.hpp"
#include "util/check.hpp"

namespace prionn::nn {

namespace {
// ReLU kernels over flat element ranges, out of line for the same reason
// as MaxPool2d's (nn/pool.cpp). `in` and `out` (`dy` and `dx`) may be the
// same buffer: each element is read before it is written.
[[gnu::noinline]] void relu_range(const float* in, float* out,
                                  std::uint8_t* pass, std::size_t lo,
                                  std::size_t hi) noexcept {
  for (std::size_t i = lo; i < hi; ++i) {
    const float x = in[i];
    pass[i] = !(x <= 0.0f);
    out[i] = x < 0.0f ? 0.0f : x;
  }
}

[[gnu::noinline]] void relu_grad_range(const std::uint8_t* pass,
                                       const float* dy, float* dx,
                                       std::size_t lo,
                                       std::size_t hi) noexcept {
  for (std::size_t i = lo; i < hi; ++i) dx[i] = pass[i] ? dy[i] : 0.0f;
}
}  // namespace

void Relu::apply(const Tensor& in, Tensor& out) {
  pass_.resize(in.size());
  const std::size_t batch = in.dim(0);
  const std::size_t per_sample = batch ? in.size() / batch : 0;
  for_each_sample(batch, per_sample, [&](std::size_t lo, std::size_t hi) {
    relu_range(in.data(), out.data(), pass_.data(), lo * per_sample,
               hi * per_sample);
  });
}

void Relu::gate(const Tensor& dy, Tensor& dx) const {
  PRIONN_CHECK(dy.size() == pass_.size())
      << "Relu::backward: gradient has " << dy.size()
      << " elements but forward saw " << pass_.size();
  const std::size_t batch = dy.dim(0);
  const std::size_t per_sample = batch ? dy.size() / batch : 0;
  for_each_sample(batch, per_sample, [&](std::size_t lo, std::size_t hi) {
    relu_grad_range(pass_.data(), dy.data(), dx.data(), lo * per_sample,
                    hi * per_sample);
  });
}

Tensor Relu::forward(const Tensor& input, bool /*training*/) {
  Tensor out(input.shape());
  apply(input, out);
  return out;
}

Tensor Relu::forward(Tensor&& input, bool /*training*/) {
  apply(input, input);
  return std::move(input);
}

Tensor Relu::backward(const Tensor& grad_output) {
  Tensor grad(grad_output.shape());
  gate(grad_output, grad);
  return grad;
}

Tensor Relu::backward(Tensor&& grad_output) {
  gate(grad_output, grad_output);
  return std::move(grad_output);
}

void Relu::save(std::ostream& /*os*/) const {}
std::unique_ptr<Layer> Relu::load(std::istream& /*is*/) {
  return std::make_unique<Relu>();
}

}  // namespace prionn::nn
