// The ReLU activation, the only one PRIONN's models use. Shape-agnostic:
// it applies to whatever batch tensor flows through.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace prionn::nn {

/// For backward it keeps one byte per element, whether the input passed
/// (!(x <= 0), so NaN passes and both zeros do not), rather than a copy of
/// the input. The rvalue overloads run in place on the tensor they are
/// handed.
class Relu : public Layer {
 public:
  std::string kind() const override { return "relu"; }
  Shape output_shape(const Shape& input) const override { return input; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward(Tensor&& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward(Tensor&& grad_output) override;
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

 private:
  /// out = relu(in), recording the pass mask; `out` may be `in`.
  void apply(const Tensor& in, Tensor& out);
  /// dx = dy where the input passed, else 0; `dx` may be `dy`.
  void gate(const Tensor& dy, Tensor& dx) const;

  std::vector<std::uint8_t> pass_;
};

}  // namespace prionn::nn
