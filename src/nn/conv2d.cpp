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
// The weight gradient runs in sub-batches whose patch matrix would hold
// at most this many floats. No d(cols) buffer of that size is formed any
// more; the bound stays because the split fixes where the weight
// gradient's depth blocks start, so it is part of the arithmetic.
constexpr std::size_t kMaxColsFloats = 16u << 20;  // 64 MiB

/// Scratch of the calling thread, shared by every Conv2d of every network
/// it runs. Layer calls never nest, and the pool never starts another body
/// on a thread that is inside one, so one grow-only set per thread serves
/// them all: a retrain sizes it once for the widest layer instead of
/// allocating per call, and keeps no per-layer copy. The patch matrix
/// itself is never stored: the forward and the weight gradient lower it
/// panel by panel inside the GEMM, and the input gradient forms one
/// sample's d(cols) at a time.
struct Scratch {
  std::vector<float> weights;       // stacked W (rows x pr)
  std::vector<float> dy;            // stacked dY gathered (rows x wide)
  std::vector<float> grad_weights;  // stacked dW (rows x pr)
  std::vector<float> grad_cols;     // one sample's d(cols) (pr x pixels)
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

/// Where each conv's rows sit in a stacked product: conv i's
/// out_channels() rows start at first[i], a tensor::kMR multiple, and
/// `rows` counts the padding between blocks too. The last block is not
/// padded, so a lone conv's product is exactly its own.
struct RowBlocks {
  std::vector<std::size_t> first;
  std::size_t rows = 0;

  explicit RowBlocks(std::span<Conv2d* const> convs) {
    for (const Conv2d* c : convs) {
      rows = (rows + tensor::kMR - 1) / tensor::kMR * tensor::kMR;
      first.push_back(rows);
      rows += c->out_channels();
    }
  }
};
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

bool Conv2d::stacks_with(const Conv2d& other) const noexcept {
  return in_channels() == other.in_channels() &&
         weight_.dim(2) == other.weight_.dim(2) &&
         weight_.dim(3) == other.weight_.dim(3) &&
         stride_ == other.stride_ && pad_h_ == other.pad_h_ &&
         pad_w_ == other.pad_w_;
}

Tensor Conv2d::forward(Tensor&& input, bool /*training*/) {
  geom_ = geometry({input.dim(1), input.dim(2), input.dim(3)});
  input_ = std::move(input);
  Conv2d* const self = this;
  return std::move(forward_stacked({&self, 1}, input_).front());
}

std::vector<Tensor> Conv2d::forward_stacked(std::span<Conv2d* const> convs,
                                            const Tensor& input) {
  PRIONN_CHECK(!convs.empty()) << "Conv2d::forward_stacked: no convolution";
  const Conv2d& lead = *convs.front();
  for (const Conv2d* c : convs)
    PRIONN_CHECK(c->stacks_with(lead))
        << "Conv2d::forward_stacked: convolutions of different geometry";
  const tensor::Conv2dGeom g =
      lead.geometry({input.dim(1), input.dim(2), input.dim(3)});
  const std::size_t batch = input.dim(0);
  const std::size_t pr = g.patch_rows();
  const std::size_t pixels = g.patch_cols();
  const RowBlocks blocks(convs);

  // W (rows x pr): each conv's weights in its block, zeros in the padding.
  float* w = grown(scratch().weights, blocks.rows * pr);
  std::fill_n(w, blocks.rows * pr, 0.0f);
  struct Target {
    float* y;
    const float* bias;
    std::size_t channels, first;
  };
  std::vector<Tensor> out;
  std::vector<Target> targets;
  out.reserve(convs.size());
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const Conv2d& c = *convs[i];
    std::copy_n(c.weight_.data(), c.weight_.size(),
                w + blocks.first[i] * pr);
    out.emplace_back(Shape{batch, c.out_channels(), g.out_h(), g.out_w()});
    targets.push_back({out.back().data(), c.bias_.data(), c.out_channels(),
                       blocks.first[i]});
  }

  // Implicit GEMM: Y (rows x batch*pixels) = W (rows x pr) * patches,
  // where each sample's pixels occupy a contiguous column range of the
  // patch matrix. The GEMM lowers each cache-sized panel of it straight
  // from the images, once for every conv, and each finished column block
  // is scattered to each conv's (oc, pixels) slices of its samples, with
  // that conv's bias, while it is still in cache.
  tensor::gemm(
      blocks.rows, pr, batch * pixels, w, patches(g, input.data()),
      [&targets, pixels](std::size_t q0, std::size_t q1, const float* block,
                         std::size_t ld) {
        for (std::size_t q = q0; q < q1;) {
          const std::size_t s = q / pixels, p = q % pixels;
          const std::size_t run = std::min(q1 - q, pixels - p);
          for (const Target& t : targets)
            for (std::size_t c = 0; c < t.channels; ++c) {
              const float b = t.bias[c];
              const float* src = block + (t.first + c) * ld + (q - q0);
              float* dst = t.y + (s * t.channels + c) * pixels + p;
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

void Conv2d::backward_parameters_stacked(
    std::span<Conv2d* const> convs, const Tensor& input,
    std::span<const Tensor* const> grad_outputs) {
  PRIONN_CHECK(!convs.empty() && grad_outputs.size() == convs.size())
      << "Conv2d::backward_parameters_stacked: " << grad_outputs.size()
      << " gradients for " << convs.size() << " convolutions";
  const Conv2d& lead = *convs.front();
  const tensor::Conv2dGeom g =
      lead.geometry({input.dim(1), input.dim(2), input.dim(3)});
  const std::size_t batch = input.dim(0);
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const Conv2d& c = *convs[i];
    const Tensor& grad_output = *grad_outputs[i];
    PRIONN_CHECK(c.stacks_with(lead))
        << "Conv2d::backward: convolutions of different geometry";
    PRIONN_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                 grad_output.dim(1) == c.out_channels() &&
                 grad_output.dim(2) == g.out_h() &&
                 grad_output.dim(3) == g.out_w())
        << "Conv2d::backward: gradient shape "
        << tensor::shape_to_string(grad_output.shape())
        << " does not match forward geometry (" << batch << ", "
        << c.out_channels() << ", " << g.out_h() << ", " << g.out_w()
        << ")";
  }
  const std::size_t pr = g.patch_rows();
  const std::size_t pixels = g.patch_cols();
  const std::size_t in_stride = g.channels * g.height * g.width;
  const RowBlocks blocks(convs);
  const std::size_t rows = blocks.rows;

  const std::size_t chunk =
      std::clamp<std::size_t>(kMaxColsFloats / (pr * pixels), 1, batch);
  Scratch& buffers = scratch();
  float* dy = grown(buffers.dy, rows * chunk * pixels);
  // dW (rows x pr) starts from each conv's accumulated gradient, so the
  // product adds to it in the order a product of its own would.
  float* dw = grown(buffers.grad_weights, rows * pr);
  std::fill_n(dw, rows * pr, 0.0f);
  struct Source {
    const float* dout;
    std::size_t channels, first;
  };
  std::vector<Source> sources;
  // Row r of the stacked dY sums into *db_of[r]; padding rows into none.
  std::vector<float*> db_of(rows, nullptr);
  for (std::size_t i = 0; i < convs.size(); ++i) {
    Conv2d& c = *convs[i];
    const std::size_t first = blocks.first[i];
    std::copy_n(c.grad_weight_.data(), c.grad_weight_.size(),
                dw + first * pr);
    sources.push_back({grad_outputs[i]->data(), c.out_channels(), first});
    for (std::size_t ch = 0; ch < c.out_channels(); ++ch)
      db_of[first + ch] = c.grad_bias_.data() + ch;
  }

  for (std::size_t base = 0; base < batch; base += chunk) {
    const std::size_t n = std::min(chunk, batch - base);
    const std::size_t wide = n * pixels;
    const float* in = input.data() + base * in_stride;
    // Gather each conv's dY from (n, oc, pixels) into its rows of the
    // (rows x wide) stack; the padding rows are zero.
    for (std::size_t r = 0; r < rows; ++r)
      if (!db_of[r]) std::fill_n(dy + r * wide, wide, 0.0f);
    for_each_sample(
        n, rows * pixels,
        [&sources, dy, base, wide, pixels](std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s)
            for (const Source& src : sources)
              for (std::size_t c = 0; c < src.channels; ++c)
                std::copy_n(
                    src.dout + ((base + s) * src.channels + c) * pixels,
                    pixels, dy + (src.first + c) * wide + s * pixels);
        });
    // dW += dY (rows x wide) * cols^T (wide x pr), the sub-batch's patches
    // lowered one depth block at a time inside the GEMM, once for every
    // conv.
    tensor::gemm_bt(rows, wide, pr, 1.0f, dy, patches(g, in), 1.0f, dw);
    // db: channels, like samples, are independent; each channel's sum
    // runs in pixel order on one thread.
    for_each_sample(rows, wide,
                    [&db_of, dy, wide](std::size_t lo, std::size_t hi) {
                      for (std::size_t r = lo; r < hi; ++r) {
                        if (!db_of[r]) continue;
                        const float* lane = dy + r * wide;
                        float acc = 0.0f;
                        for (std::size_t p = 0; p < wide; ++p)
                          acc += lane[p];
                        *db_of[r] += acc;
                      }
                    });
  }
  for (std::size_t i = 0; i < convs.size(); ++i) {
    Conv2d& c = *convs[i];
    std::copy_n(dw + blocks.first[i] * pr, c.grad_weight_.size(),
                c.grad_weight_.data());
  }
}

Tensor Conv2d::backward_impl(const Tensor& grad_output,
                             bool input_gradient) {
  PRIONN_CHECK(!input_.empty()) << "Conv2d::backward: forward() first";
  Conv2d* const self = this;
  const Tensor* const grad = &grad_output;
  backward_parameters_stacked({&self, 1}, input_, {&grad, 1});
  if (!input_gradient) return Tensor();

  // dX, one sample at a time: d(cols) = W^T (pr x oc) * dY_s (oc x
  // pixels), read straight from grad_output and added back by col2im
  // while it is still in cache. A column's product does not depend on
  // which columns share its GEMM call, so this matches one product over
  // the whole batch bit for bit.
  const std::size_t batch = grad_output.dim(0);
  const std::size_t pr = geom_.patch_rows();
  const std::size_t pixels = geom_.patch_cols();
  const std::size_t oc = out_channels();
  const std::size_t in_stride = geom_.channels * geom_.height * geom_.width;
  const tensor::Conv2dGeom g = geom_;
  Tensor grad_input(input_.shape());
  const float* w = weight_.data();
  const float* dout = grad_output.data();
  float* dx = grad_input.data();
  for_each_sample(batch, pr * pixels, [=](std::size_t lo, std::size_t hi) {
    float* grad_cols = grown(scratch().grad_cols, pr * pixels);
    for (std::size_t s = lo; s < hi; ++s) {
      tensor::gemm_at(pr, oc, pixels, 1.0f, w, dout + s * oc * pixels, 0.0f,
                      grad_cols);
      tensor::col2im(g, grad_cols, dx + s * in_stride);
    }
  });
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
