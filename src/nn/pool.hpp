// Max pooling over NCHW with non-overlapping window_h x window_w windows
// (the stride equals the window on each axis). The 2D-CNN pools 2 x 2, the
// 1D-CNN 1 x 4 over its (C, 1, L) view. Stores the winner of each window
// as its offset within the window for the backward pass; ties keep the
// first maximum.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace prionn::nn {

class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::size_t window_h, std::size_t window_w);

  std::string kind() const override { return "maxpool2d"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  /// Keeps `input`'s buffer and writes the next backward()'s input
  /// gradient into it instead of allocating one.
  Tensor forward(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

 private:
  Tensor pool(const Tensor& input);

  std::size_t window_h_, window_w_;
  Shape input_shape_;
  std::vector<std::uint32_t> winner_;  // offset in its window, per output
  Tensor kept_;  // the last rvalue input, reused as the input gradient
};

}  // namespace prionn::nn
