#include "nn/pool.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

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
/// recording each winner's offset within its window (ky * ww + kx). Kept
/// out of line: inlined into the std::function thunk of the per-sample
/// split, GCC's code ran 2.5x slower.
[[gnu::noinline]] void pool_planes(const float* in, std::size_t first,
                                   std::size_t last, std::size_t h,
                                   std::size_t w, std::size_t wh,
                                   std::size_t ww, float* out,
                                   std::uint32_t* winner) noexcept {
  const std::size_t oh = h / wh;
  const std::size_t ow = w / ww;
  std::size_t oi = first * oh * ow;
  for (std::size_t plane_id = first; plane_id < last; ++plane_id) {
    const float* plane = in + plane_id * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        std::uint32_t best_offset = 0;
        for (std::size_t ky = 0; ky < wh; ++ky) {
          const float* row = plane + (oy * wh + ky) * w + ox * ww;
          for (std::size_t kx = 0; kx < ww; ++kx) {
            if (row[kx] > best) {
              best = row[kx];
              best_offset = static_cast<std::uint32_t>(ky * ww + kx);
            }
          }
        }
        out[oi] = best;
        winner[oi] = best_offset;
      }
    }
  }
}

/// The adjoint of pool_planes: writes every element of input planes
/// [first, last) of dx, 0 + dy at each window's winner (so a -0.0
/// gradient arrives as +0.0, as a scatter into zeros would give it) and 0
/// elsewhere, including the rows and columns no window covers.
[[gnu::noinline]] void unpool_planes(const float* dy,
                                     const std::uint32_t* winner,
                                     std::size_t first, std::size_t last,
                                     std::size_t h, std::size_t w,
                                     std::size_t wh, std::size_t ww,
                                     float* dx) noexcept {
  const std::size_t oh = h / wh;
  const std::size_t ow = w / ww;
  for (std::size_t plane_id = first; plane_id < last; ++plane_id) {
    float* plane = dx + plane_id * h * w;
    const std::size_t plane_out = plane_id * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* dy_row = dy + plane_out + oy * ow;
      const std::uint32_t* winner_row = winner + plane_out + oy * ow;
      for (std::size_t ky = 0; ky < wh; ++ky) {
        float* row = plane + (oy * wh + ky) * w;
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = 0.0f + dy_row[ox];
          const std::uint32_t first_tap = static_cast<std::uint32_t>(ky * ww);
          for (std::size_t kx = 0; kx < ww; ++kx)
            row[ox * ww + kx] =
                winner_row[ox] == first_tap + kx ? g : 0.0f;
        }
        std::fill(row + ow * ww, row + w, 0.0f);
      }
    }
    std::fill(plane + oh * wh * w, plane + h * w, 0.0f);
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

Tensor MaxPool2d::pool(const Tensor& input) {
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_h_, ow = w / window_w_;
  Tensor out({batch, c, oh, ow});
  winner_.resize(out.size());
  // Samples write disjoint output and winner slices: split over the pool.
  for_each_sample(batch, c * h * w, [&](std::size_t lo, std::size_t hi) {
    pool_planes(input.data(), lo * c, hi * c, h, w, window_h_, window_w_,
                out.data(), winner_.data());
  });
  return out;
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/) {
  kept_ = Tensor();
  return pool(input);
}

Tensor MaxPool2d::forward(Tensor&& input, bool /*training*/) {
  Tensor out = pool(input);
  kept_ = std::move(input);
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  PRIONN_CHECK(grad_output.size() == winner_.size())
      << "MaxPool2d::backward: gradient has " << grad_output.size()
      << " elements but forward produced " << winner_.size();
  // Every element is written below, so the kept input needs no clearing.
  Tensor grad_input = kept_.empty() ? Tensor(input_shape_)
                                    : std::exchange(kept_, Tensor());
  const std::size_t batch = input_shape_[0], c = input_shape_[1];
  const std::size_t h = input_shape_[2], w = input_shape_[3];
  const float* dy = grad_output.data();
  const std::uint32_t* winner = winner_.data();
  float* dx = grad_input.data();
  const std::size_t wh = window_h_, ww = window_w_;
  for_each_sample(batch, c * h * w, [=](std::size_t lo, std::size_t hi) {
    unpool_planes(dy, winner, lo * c, hi * c, h, w, wh, ww, dx);
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
