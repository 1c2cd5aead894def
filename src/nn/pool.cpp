#include "nn/pool.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "nn/sample_parallel.hpp"
#include "util/check.hpp"

namespace prionn::nn {

namespace {
std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("pool load: truncated stream");
  return v;
}
void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Max-pool input planes [first, last) of h x w by wh x ww windows,
/// recording each winner's flat input index. Kept out of line: inlined
/// into the std::function thunk of the per-sample split, GCC's code ran
/// 2.5x slower.
[[gnu::noinline]] void pool_planes(const float* in, std::size_t first,
                                   std::size_t last, std::size_t h,
                                   std::size_t w, std::size_t wh,
                                   std::size_t ww, float* out,
                                   std::size_t* winner) noexcept {
  const std::size_t oh = h / wh;
  const std::size_t ow = w / ww;
  std::size_t oi = first * oh * ow;
  for (std::size_t plane_id = first; plane_id < last; ++plane_id) {
    const std::size_t plane_base = plane_id * h * w;
    const float* plane = in + plane_base;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t ky = 0; ky < wh; ++ky) {
          const std::size_t iy = oy * wh + ky;
          for (std::size_t kx = 0; kx < ww; ++kx) {
            const std::size_t ix = ox * ww + kx;
            const float v = plane[iy * w + ix];
            if (v > best) {
              best = v;
              best_idx = plane_base + iy * w + ix;
            }
          }
        }
        out[oi] = best;
        winner[oi] = best_idx;
      }
    }
  }
}
}  // namespace

MaxPool2d::MaxPool2d(std::size_t window_h, std::size_t window_w)
    : window_h_(window_h), window_w_(window_w) {
  if (window_h_ == 0 || window_w_ == 0)
    throw std::invalid_argument("MaxPool2d: window > 0");
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  if (input.size() != 3)
    throw std::invalid_argument("MaxPool2d: expected (C, H, W)");
  if (input[1] < window_h_ || input[2] < window_w_)
    throw std::invalid_argument("MaxPool2d: window larger than input");
  return {input[0], input[1] / window_h_, input[2] / window_w_};
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/) {
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_h_, ow = w / window_w_;
  Tensor out({batch, c, oh, ow});
  argmax_.resize(out.size());
  // Samples write disjoint output and argmax slices: split over the pool.
  for_each_sample(batch, c * h * w, [&](std::size_t lo, std::size_t hi) {
    pool_planes(input.data(), lo * c, hi * c, h, w, window_h_, window_w_,
                out.data(), argmax_.data());
  });
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  PRIONN_CHECK(grad_output.size() == argmax_.size())
      << "MaxPool2d::backward: gradient has " << grad_output.size()
      << " elements but forward produced " << argmax_.size();
  Tensor grad_input(input_shape_);
  // A sample's winners all lie in its own input slice, and within a sample
  // the scatter-add keeps its serial order.
  const std::size_t batch = input_shape_[0];
  const std::size_t per_sample = batch ? grad_output.size() / batch : 0;
  const float* dy = grad_output.data();
  const std::size_t* winner = argmax_.data();
  float* dx = grad_input.data();
  for_each_sample(batch, per_sample, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo * per_sample; i < hi * per_sample; ++i)
      dx[winner[i]] += dy[i];
  });
  return grad_input;
}

void MaxPool2d::save(std::ostream& os) const {
  write_u64(os, window_h_);
  write_u64(os, window_w_);
}

std::unique_ptr<Layer> MaxPool2d::load(std::istream& is) {
  const auto window_h = static_cast<std::size_t>(read_u64(is));
  const auto window_w = static_cast<std::size_t>(read_u64(is));
  return std::make_unique<MaxPool2d>(window_h, window_w);
}

}  // namespace prionn::nn
