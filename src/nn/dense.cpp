#include "nn/dense.hpp"

#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"

namespace prionn::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             util::Rng& rng)
    : weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  he_init(weight_, in_features, rng);
}

Dense::Dense(Tensor weight, Tensor bias)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()) {
  if (weight_.rank() != 2 || bias_.rank() != 1 ||
      bias_.dim(0) != weight_.dim(0))
    throw std::invalid_argument("Dense: inconsistent weight/bias shapes");
}

Shape Dense::output_shape(const Shape& input) const {
  if (input.size() != 1 || input[0] != in_features())
    throw std::invalid_argument("Dense: expected input of " +
                                std::to_string(in_features()) + " features");
  return {out_features()};
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  const std::size_t batch = input.dim(0);
  if (input.rank() != 2 || input.dim(1) != in_features())
    throw std::invalid_argument("Dense::forward: bad input shape " +
                                tensor::shape_to_string(input.shape()));
  input_ = input;
  Tensor out({batch, out_features()});
  // out = input (N x in) * W^T (in x out)
  tensor::gemm_bt(batch, in_features(), out_features(), 1.0f, input.data(),
                  weight_.data(), 0.0f, out.data());
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t o = 0; o < out_features(); ++o)
      out.at(n, o) += bias_[o];
  return out;
}

void Dense::backward_parameters(const Tensor& grad_output) {
  PRIONN_CHECK(grad_output.rank() == 2 &&
               grad_output.dim(1) == out_features())
      << "Dense::backward: gradient shape "
      << tensor::shape_to_string(grad_output.shape()) << " does not match "
      << out_features() << " output features";
  PRIONN_CHECK(!input_.empty() && grad_output.dim(0) == input_.dim(0))
      << "Dense::backward: gradient batch " << grad_output.dim(0)
      << " does not match cached forward batch "
      << (input_.empty() ? 0 : input_.dim(0));
  const std::size_t batch = grad_output.dim(0);
  // dW += dY^T (out x N) * X (N x in)
  tensor::gemm_at(out_features(), batch, in_features(), 1.0f,
                  grad_output.data(), input_.data(), 1.0f,
                  grad_weight_.data());
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t o = 0; o < out_features(); ++o)
      grad_bias_[o] += grad_output.at(n, o);
}

Tensor Dense::backward(const Tensor& grad_output) {
  backward_parameters(grad_output);
  const std::size_t batch = grad_output.dim(0);
  // dX = dY (N x out) * W (out x in)
  Tensor grad_input({batch, in_features()});
  tensor::gemm(batch, out_features(), in_features(), 1.0f,
               grad_output.data(), weight_.data(), 0.0f, grad_input.data());
  return grad_input;
}

void Dense::save(std::ostream& os) const {
  weight_.save(os);
  bias_.save(os);
}

std::unique_ptr<Layer> Dense::load(std::istream& is) {
  Tensor w = Tensor::load(is);
  Tensor b = Tensor::load(is);
  return std::make_unique<Dense>(std::move(w), std::move(b));
}

}  // namespace prionn::nn
