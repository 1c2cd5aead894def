// 2-D convolution over (N, C, H, W) batches as an implicit GEMM. This is
// the workhorse of the paper's chosen model (2D-CNN over 64 x 64 script
// images). The forward and the weight gradient never store the im2col
// patch matrix: the GEMM lowers each cache-sized panel of it straight from
// the batch (tensor::im2col_block), and the forward scatters each finished
// output block with its bias. The input gradient still forms d(cols)
// (W^T * dY) and adds it back with col2im. Results are bit-identical to
// the materialised im2col + GEMM. The 1D-CNN runs through this layer too:
// a 1 x k kernel with padding (0, k / 2) over a (C, 1, L) view of the
// flattened script.
#pragma once

#include <memory>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace prionn::nn {

class Conv2d : public Layer {
 public:
  /// Padding is per axis: the 2D-CNN pads its 3 x 3 kernels by (1, 1),
  /// the 1D-CNN its 1 x k kernels by (0, k / 2). One stride serves both.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_h, std::size_t kernel_w, std::size_t stride,
         std::size_t pad_h, std::size_t pad_w, util::Rng& rng);
  Conv2d(Tensor weight, Tensor bias, std::size_t stride, std::size_t pad_h,
         std::size_t pad_w);

  std::string kind() const override { return "conv2d"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_parameters(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

  std::size_t in_channels() const noexcept { return weight_.dim(1); }
  std::size_t out_channels() const noexcept { return weight_.dim(0); }

 private:
  tensor::Conv2dGeom geometry(const Shape& sample) const;
  /// Accumulates dW and db; returns dX when `input_gradient`, else an
  /// empty tensor.
  Tensor backward_impl(const Tensor& grad_output, bool input_gradient);

  Tensor weight_;  // (out_c, in_c, kh, kw)
  Tensor bias_;    // (out_c)
  Tensor grad_weight_;
  Tensor grad_bias_;
  std::size_t stride_ = 1;
  std::size_t pad_h_ = 0, pad_w_ = 0;

  Tensor input_;               // cached batch
  tensor::Conv2dGeom geom_{};  // geometry of the cached batch
};

}  // namespace prionn::nn
