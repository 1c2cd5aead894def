#include "nn/conv2d.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "nn/sample_parallel.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"

namespace prionn::nn {

namespace {
// The backward pass runs in sub-batches whose d(cols) matrix stays within
// this many floats, so the one-hot transform (128 input channels) cannot
// blow memory. The split also fixes where the weight gradient's depth
// blocks start, so it is part of the arithmetic.
constexpr std::size_t kMaxColsFloats = 16u << 20;  // 64 MiB

/// Backward scratch of the calling thread, shared by every Conv2d of every
/// network it runs. Layer calls never nest, so one grow-only set per thread
/// serves them all: a retrain sizes it once for the widest layer instead of
/// allocating per call, and keeps no per-layer copy. The patch matrix
/// itself is never stored: the forward and the weight gradient lower it
/// panel by panel inside the GEMM.
struct Scratch {
  std::vector<float> dy;         // dY gathered (oc x wide)
  std::vector<float> grad_cols;  // d(cols) (pr x wide)
};

Scratch& scratch() {
  thread_local Scratch buffers;
  return buffers;
}

float* grown(std::vector<float>& buffer, std::size_t floats) {
  if (buffer.size() < floats) buffer.resize(floats);
  return buffer.data();
}

/// The patch matrix of the batch at `images` as a GEMM operand.
tensor::BlockSource patches(const tensor::Conv2dGeom& g,
                            const float* images) {
  return [&g, images](std::size_t r0, std::size_t r1, std::size_t c0,
                      std::size_t c1, float* out, std::size_t ld) {
    tensor::im2col_block(g, images, r0, r1, c0, c1, out, ld);
  };
}
}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w,
               std::size_t stride, std::size_t pad_h, std::size_t pad_w,
               util::Rng& rng)
    : weight_({out_channels, in_channels, kernel_h, kernel_w}),
      bias_({out_channels}),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()),
      stride_(stride),
      pad_h_(pad_h),
      pad_w_(pad_w) {
  he_init(weight_, in_channels * kernel_h * kernel_w, rng);
}

Conv2d::Conv2d(Tensor weight, Tensor bias, std::size_t stride,
               std::size_t pad_h, std::size_t pad_w)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()),
      stride_(stride),
      pad_h_(pad_h),
      pad_w_(pad_w) {
  if (weight_.rank() != 4 || bias_.rank() != 1 ||
      bias_.dim(0) != weight_.dim(0))
    throw std::invalid_argument("Conv2d: inconsistent weight/bias shapes");
}

tensor::Conv2dGeom Conv2d::geometry(const Shape& sample) const {
  if (sample.size() != 3 || sample[0] != in_channels())
    throw std::invalid_argument(
        "Conv2d: expected (C, H, W) sample with C = " +
        std::to_string(in_channels()));
  tensor::Conv2dGeom g;
  g.channels = sample[0];
  g.height = sample[1];
  g.width = sample[2];
  g.kernel_h = weight_.dim(2);
  g.kernel_w = weight_.dim(3);
  g.stride_h = g.stride_w = stride_;
  g.pad_h = pad_h_;
  g.pad_w = pad_w_;
  if (g.height + 2 * g.pad_h < g.kernel_h ||
      g.width + 2 * g.pad_w < g.kernel_w)
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  return g;
}

Shape Conv2d::output_shape(const Shape& input) const {
  const auto g = geometry(input);
  return {out_channels(), g.out_h(), g.out_w()};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  return forward(Tensor(input), training);
}

Tensor Conv2d::forward(Tensor&& input, bool /*training*/) {
  geom_ = geometry({input.dim(1), input.dim(2), input.dim(3)});
  input_ = std::move(input);
  const std::size_t batch = input_.dim(0);

  const std::size_t pr = geom_.patch_rows();
  const std::size_t pixels = geom_.patch_cols();
  const std::size_t oc = out_channels();
  Tensor out({batch, oc, geom_.out_h(), geom_.out_w()});

  // Implicit GEMM: Y (oc x batch*pixels) = W (oc x pr) * patches, where
  // each sample's pixels occupy a contiguous column range of the patch
  // matrix. The GEMM lowers each cache-sized panel of it straight from the
  // images, and each finished column block is scattered to its samples'
  // (oc, pixels) slices with the bias while it is still in cache.
  const float* bias = bias_.data();
  float* y = out.data();
  tensor::gemm(
      oc, pr, batch * pixels, weight_.data(), patches(geom_, input_.data()),
      [=](std::size_t q0, std::size_t q1, const float* block,
          std::size_t ld) {
        for (std::size_t q = q0; q < q1;) {
          const std::size_t s = q / pixels, p = q % pixels;
          const std::size_t run = std::min(q1 - q, pixels - p);
          for (std::size_t c = 0; c < oc; ++c) {
            const float b = bias[c];
            const float* src = block + c * ld + (q - q0);
            float* dst = y + (s * oc + c) * pixels + p;
            for (std::size_t i = 0; i < run; ++i) dst[i] = src[i] + b;
          }
          q += run;
        }
      });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  return backward_impl(grad_output, /*input_gradient=*/true);
}

void Conv2d::backward_parameters(const Tensor& grad_output) {
  backward_impl(grad_output, /*input_gradient=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_output,
                             bool input_gradient) {
  PRIONN_CHECK(!input_.empty()) << "Conv2d::backward: forward() first";
  PRIONN_CHECK(grad_output.rank() == 4 &&
               grad_output.dim(0) == input_.dim(0) &&
               grad_output.dim(1) == out_channels() &&
               grad_output.dim(2) == geom_.out_h() &&
               grad_output.dim(3) == geom_.out_w())
      << "Conv2d::backward: gradient shape "
      << tensor::shape_to_string(grad_output.shape())
      << " does not match forward geometry (" << input_.dim(0) << ", "
      << out_channels() << ", " << geom_.out_h() << ", " << geom_.out_w()
      << ")";
  const std::size_t batch = grad_output.dim(0);
  const std::size_t pr = geom_.patch_rows();
  const std::size_t pixels = geom_.patch_cols();
  const std::size_t oc = out_channels();
  const std::size_t in_stride = geom_.channels * geom_.height * geom_.width;

  Tensor grad_input;
  if (input_gradient) grad_input = Tensor(input_.shape());
  const std::size_t chunk =
      std::clamp<std::size_t>(kMaxColsFloats / (pr * pixels), 1, batch);
  Scratch& buffers = scratch();
  float* dy = grown(buffers.dy, oc * chunk * pixels);
  float* grad_cols =
      input_gradient ? grown(buffers.grad_cols, pr * chunk * pixels)
                     : nullptr;
  const tensor::Conv2dGeom g = geom_;
  float* db = grad_bias_.data();

  for (std::size_t base = 0; base < batch; base += chunk) {
    const std::size_t n = std::min(chunk, batch - base);
    const std::size_t wide = n * pixels;
    const float* in = input_.data() + base * in_stride;
    const float* dout = grad_output.data() + base * oc * pixels;
    // Gather dY from (n, oc, pixels) into (oc x wide).
    for_each_sample(n, oc * pixels, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s)
        for (std::size_t c = 0; c < oc; ++c)
          std::copy_n(dout + (s * oc + c) * pixels, pixels,
                      dy + c * wide + s * pixels);
    });
    // dW += dY (oc x wide) * cols^T (wide x pr), the sub-batch's patches
    // lowered one depth block at a time inside the GEMM.
    tensor::gemm_bt(oc, wide, pr, 1.0f, dy, patches(g, in), 1.0f,
                    grad_weight_.data());
    // db: channels, like samples, are independent; each channel's sum
    // runs in pixel order on one thread.
    for_each_sample(oc, wide, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        const float* lane = dy + c * wide;
        float acc = 0.0f;
        for (std::size_t p = 0; p < wide; ++p) acc += lane[p];
        db[c] += acc;
      }
    });
    if (!input_gradient) continue;
    // d(cols) = W^T (pr x oc) * dY (oc x wide)
    tensor::gemm_at(pr, oc, wide, 1.0f, weight_.data(), dy, 0.0f, grad_cols);
    float* dx = grad_input.data() + base * in_stride;
    for_each_sample(n, pr * pixels, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s)
        tensor::col2im_strided(g, grad_cols + s * pixels, wide,
                               dx + s * in_stride);
    });
  }
  return grad_input;
}

void Conv2d::save(std::ostream& os) const {
  weight_.save(os);
  bias_.save(os);
  const std::uint64_t fields[] = {stride_, pad_h_, pad_w_};
  os.write(reinterpret_cast<const char*>(fields), sizeof(fields));
}

std::unique_ptr<Layer> Conv2d::load(std::istream& is) {
  Tensor w = Tensor::load(is);
  Tensor b = Tensor::load(is);
  std::uint64_t fields[3] = {};  // stride, pad_h, pad_w
  is.read(reinterpret_cast<char*>(fields), sizeof(fields));
  if (!is) throw std::runtime_error("Conv2d::load: truncated stream");
  return std::make_unique<Conv2d>(std::move(w), std::move(b),
                                  static_cast<std::size_t>(fields[0]),
                                  static_cast<std::size_t>(fields[1]),
                                  static_cast<std::size_t>(fields[2]));
}

}  // namespace prionn::nn
