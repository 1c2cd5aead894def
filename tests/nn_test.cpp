// Unit tests for the NN substrate: finite-difference gradient checks for
// every layer, loss correctness, optimiser behaviour, end-to-end learning
// on a tiny task, and serialisation round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/model_zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace nn = prionn::nn;
using prionn::tensor::Tensor;

namespace {

Tensor random_tensor(prionn::tensor::Shape shape, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Scalar objective: sum of squares of the layer output / 2 — its gradient
/// w.r.t. the output is simply the output itself.
double objective(nn::Layer& layer, const Tensor& input) {
  const Tensor out = layer.forward(input, /*training=*/false);
  double acc = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i)
    acc += 0.5 * static_cast<double>(out[i]) * out[i];
  return acc;
}

/// Finite-difference check of both input and parameter gradients.
void check_gradients(nn::Layer& layer, Tensor input, double tolerance) {
  // Analytic gradients.
  layer.zero_gradients();
  const Tensor out = layer.forward(input, /*training=*/false);
  const Tensor grad_in = layer.backward(out);  // dObj/dOut == out

  constexpr float kEps = 1e-2f;
  // Input gradient: spot-check a spread of coordinates.
  for (std::size_t i = 0; i < input.size();
       i += std::max<std::size_t>(1, input.size() / 17)) {
    const float saved = input[i];
    input[i] = saved + kEps;
    const double up = objective(layer, input);
    input[i] = saved - kEps;
    const double down = objective(layer, input);
    input[i] = saved;
    const double numeric = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(grad_in[i], numeric, tolerance)
        << "input gradient at " << i;
  }
  // Parameter gradients.
  const auto params = layer.parameters();
  const auto grads = layer.gradients();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& w = *params[p];
    const Tensor& g = *grads[p];
    for (std::size_t i = 0; i < w.size();
         i += std::max<std::size_t>(1, w.size() / 13)) {
      const float saved = w[i];
      w[i] = saved + kEps;
      const double up = objective(layer, input);
      w[i] = saved - kEps;
      const double down = objective(layer, input);
      w[i] = saved;
      const double numeric = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(g[i], numeric, tolerance)
          << "param " << p << " gradient at " << i;
    }
  }
}

}  // namespace

// ---------------------------------------------------- gradient checks ---

TEST(GradCheck, Dense) {
  prionn::util::Rng rng(1);
  nn::Dense layer(6, 4, rng);
  check_gradients(layer, random_tensor({3, 6}, 2), 2e-2);
}

TEST(GradCheck, Conv2d) {
  prionn::util::Rng rng(3);
  nn::Conv2d layer(2, 3, 3, 3, 1, 1, 1, rng);
  check_gradients(layer, random_tensor({2, 2, 5, 5}, 4), 3e-2);
}

TEST(GradCheck, Conv2dStride2NoPad) {
  prionn::util::Rng rng(5);
  nn::Conv2d layer(1, 2, 3, 3, 2, 0, 0, rng);
  check_gradients(layer, random_tensor({2, 1, 7, 7}, 6), 3e-2);
}

// A 1-D convolution, as the 1D-CNN runs it: a 1 x 5 kernel padded by
// (0, 2) over one-row images.
TEST(GradCheck, Conv1d) {
  prionn::util::Rng rng(7);
  nn::Conv2d layer(2, 3, 1, 5, 1, 0, 2, rng);
  check_gradients(layer, random_tensor({2, 2, 1, 9}, 8), 3e-2);
}

TEST(GradCheck, Relu) {
  nn::Relu layer;
  check_gradients(layer, random_tensor({4, 6}, 9), 1e-2);
}

TEST(GradCheck, MaxPool2d) {
  nn::MaxPool2d layer(2, 2);
  check_gradients(layer, random_tensor({2, 2, 6, 6}, 12), 1e-2);
}

// 1-D pooling over one-row images, as in the 1D-CNN.
TEST(GradCheck, MaxPool1d) {
  nn::MaxPool2d layer(1, 2);
  check_gradients(layer, random_tensor({2, 2, 1, 8}, 13), 1e-2);
}

// Ties go to the first maximum in window order, so the backward scatter
// is fixed. After a ReLU most ties are at 0, where either choice passes a
// zero gradient, so the gradient checks and digests cannot see this.
TEST(MaxPool, TiesRouteGradientToFirstMaximum) {
  nn::MaxPool2d layer(1, 4);
  const Tensor x({1, 1, 1, 8}, std::vector<float>{1, 3, 3, 2, 5, 4, 5, 5});
  const Tensor y = layer.forward(x, /*training=*/false);
  EXPECT_EQ(y[0], 3.0f);
  EXPECT_EQ(y[1], 5.0f);
  const Tensor dx =
      layer.backward(Tensor({1, 1, 1, 2}, std::vector<float>{1, 1}));
  const std::vector<float> expected = {0, 1, 0, 0, 1, 0, 0, 0};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(dx[i], expected[i]) << "input " << i;
}

TEST(GradCheck, FlattenLayer) {
  nn::Flatten layer;
  check_gradients(layer, random_tensor({3, 2, 4}, 14), 1e-2);
}

// ----------------------------------------------------------- move paths ---
// Network hands every activation and gradient to the next layer as an
// rvalue, and Relu, MaxPool2d and Flatten then work in the buffer they are
// handed. Those paths must give the same bits as the const& ones.

namespace {

/// Random values with NaN, both zeros, negatives and repeated values
/// (ties) sprinkled in.
Tensor awkward_tensor(prionn::tensor::Shape shape, std::uint64_t seed) {
  Tensor t = random_tensor(std::move(shape), seed);
  const float specials[] = {std::nanf(""), 0.0f, -0.0f, -1.0f, 0.5f, 0.5f};
  for (std::size_t i = 0; i < t.size(); i += 3)
    t[i] = specials[(i / 3) % std::size(specials)];
  return t;
}

/// Runs forward then backward through a fresh layer from `make`, once with
/// const& arguments and once with rvalues, and expects the same bits.
template <typename Make>
void expect_move_paths_match(const Make& make, const Tensor& x,
                             std::uint64_t grad_seed) {
  auto by_ref = make();
  auto by_move = make();
  nn::Layer& ref = *by_ref;
  nn::Layer& mov = *by_move;
  const Tensor y_ref = ref.forward(x, /*training=*/true);
  const Tensor y_mov = mov.forward(Tensor(x), /*training=*/true);
  EXPECT_TRUE(same_bits(y_ref, y_mov)) << ref.kind() << " forward";
  const Tensor dy = awkward_tensor(y_ref.shape(), grad_seed);
  const Tensor dx_ref = ref.backward(dy);
  const Tensor dx_mov = mov.backward(Tensor(dy));
  EXPECT_TRUE(same_bits(dx_ref, dx_mov)) << ref.kind() << " backward";
}

}  // namespace

TEST(MovePaths, ReluRvalueMatchesConstRef) {
  const auto make = [] { return std::make_unique<nn::Relu>(); };
  expect_move_paths_match(make, awkward_tensor({3, 2, 5, 7}, 31), 32);
}

TEST(MovePaths, MaxPoolRvalueMatchesConstRef) {
  for (const auto& window : {std::pair<std::size_t, std::size_t>{2, 2},
                             {1, 4},
                             {3, 2}}) {
    SCOPED_TRACE(std::to_string(window.first) + "x" +
                 std::to_string(window.second));
    const auto make = [&] {
      return std::make_unique<nn::MaxPool2d>(window.first, window.second);
    };
    expect_move_paths_match(make, awkward_tensor({3, 2, 5, 7}, 33), 34);
  }
}

TEST(MovePaths, FlattenRvalueMatchesConstRef) {
  const auto make = [] { return std::make_unique<nn::Flatten>(); };
  expect_move_paths_match(make, awkward_tensor({3, 2, 5, 7}, 35), 36);
}

// A 5 x 7 plane pooled 2 x 2 leaves row 4 and column 6 outside every
// window. The rvalue path writes the gradient into the input's own buffer,
// so those must be overwritten with zeros, not left holding the input.
TEST(MaxPool, UncoveredRowsAndColumnsGetZeroGradient) {
  nn::MaxPool2d layer(2, 2);
  Tensor x({1, 1, 5, 7});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0f + static_cast<float>((i * 7) % 11);
  const Tensor y = layer.forward(Tensor(x), /*training=*/true);
  ASSERT_EQ(y.shape(), (prionn::tensor::Shape{1, 1, 2, 3}));
  const Tensor dx = layer.backward(Tensor({1, 1, 2, 3}, 1.0f));
  std::size_t winners = 0;
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      const float g = dx.at(0, 0, r, c);
      if (r == 4 || c == 6)
        EXPECT_EQ(g, 0.0f) << "uncovered (" << r << ", " << c << ")";
      else
        EXPECT_TRUE(g == 0.0f || (g == 1.0f && x.at(0, 0, r, c) ==
                                                   y.at(0, 0, r / 2, c / 2)))
            << "(" << r << ", " << c << ")";
      winners += g == 1.0f;
    }
  }
  EXPECT_EQ(winners, 6u);
}

// The old backward scattered dy into a zeroed buffer, so a -0.0 gradient
// arrived at its winner as 0.0 + -0.0 = +0.0; the in-buffer write keeps
// that.
TEST(MaxPool, NegativeZeroGradientArrivesAsPositiveZero) {
  for (const bool rvalue : {false, true}) {
    SCOPED_TRACE(rvalue ? "rvalue" : "const&");
    nn::MaxPool2d layer(1, 2);
    const Tensor x({1, 1, 1, 4}, std::vector<float>{3, 1, -2, 5});
    if (rvalue)
      layer.forward(Tensor(x), /*training=*/true);
    else
      layer.forward(x, /*training=*/true);
    const Tensor dx =
        layer.backward(Tensor({1, 1, 1, 2}, std::vector<float>{-0.0f, 2}));
    const std::vector<float> expected = {0, 0, 0, 2};
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(dx[i], expected[i]) << "input " << i;
      EXPECT_FALSE(std::signbit(dx[i])) << "input " << i;
    }
  }
}

// A window with no value above -inf (all -inf or NaN) has no maximum; its
// winner is the window's first element. It used to be element 0 of the
// whole batch, so the gradient of sample 1 landed in sample 0.
TEST(MaxPool, WindowWithoutMaximumKeepsGradientInItsSample) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::nanf("");
  for (const bool rvalue : {false, true}) {
    SCOPED_TRACE(rvalue ? "rvalue" : "const&");
    nn::MaxPool2d layer(1, 2);
    const Tensor x({2, 1, 1, 2}, std::vector<float>{1, 2, -inf, nan});
    const Tensor y = rvalue ? layer.forward(Tensor(x), /*training=*/true)
                            : layer.forward(x, /*training=*/true);
    EXPECT_EQ(y[1], -inf);
    const Tensor dx =
        layer.backward(Tensor({2, 1, 1, 1}, std::vector<float>{1, 1}));
    const std::vector<float> expected = {0, 1, 1, 0};
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(dx[i], expected[i]) << "input " << i;
  }
}

// Conv2d forms its input gradient one sample at a time, W^T * dY_s added
// back by col2im. It must match one W^T * dY product over the whole batch,
// materialised and then added back, bit for bit. Neither geometry has a
// pixel count that is a multiple of the GEMM's 32-column tile; the second
// is big enough that each sample's product would split over the pool if
// it were not run serially inside the per-sample loop.
TEST(Conv2dBackward, PerSampleInputGradientMatchesMaterialisedGemm) {
  struct Geometry {
    std::size_t in_c, out_c, height, width, kernel, stride, pad, batch;
  };
  for (const Geometry& l : {Geometry{5, 6, 7, 9, 3, 1, 1, 3},
                            Geometry{16, 32, 31, 33, 3, 1, 1, 4},
                            Geometry{3, 4, 11, 13, 3, 2, 0, 2}}) {
    SCOPED_TRACE(std::to_string(l.height) + "x" + std::to_string(l.width));
    prionn::util::Rng rng(41);
    nn::Conv2d conv(l.in_c, l.out_c, l.kernel, l.kernel, l.stride, l.pad,
                    l.pad, rng);
    const Tensor x = random_tensor({l.batch, l.in_c, l.height, l.width}, 42);
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor dy = random_tensor(y.shape(), 43);
    const Tensor dx = conv.backward(dy);

    prionn::tensor::Conv2dGeom g;
    g.channels = l.in_c;
    g.height = l.height;
    g.width = l.width;
    g.kernel_h = g.kernel_w = l.kernel;
    g.stride_h = g.stride_w = l.stride;
    g.pad_h = g.pad_w = l.pad;
    const std::size_t pr = g.patch_rows(), pixels = g.patch_cols();
    const std::size_t oc = l.out_c, wide = l.batch * pixels;
    ASSERT_NE(pixels % 32, 0u);
    // dY gathered from (batch, oc, pixels) into (oc x batch * pixels).
    std::vector<float> dy_wide(oc * wide);
    for (std::size_t s = 0; s < l.batch; ++s)
      for (std::size_t c = 0; c < oc; ++c)
        std::memcpy(dy_wide.data() + c * wide + s * pixels,
                    dy.data() + (s * oc + c) * pixels,
                    pixels * sizeof(float));
    std::vector<float> grad_cols(pr * wide);
    prionn::tensor::gemm_at(pr, oc, wide, 1.0f, conv.parameters()[0]->data(),
                            dy_wide.data(), 0.0f, grad_cols.data());
    Tensor expected(x.shape());
    const std::size_t in_stride = l.in_c * l.height * l.width;
    for (std::size_t s = 0; s < l.batch; ++s)
      prionn::tensor::col2im_strided(g, grad_cols.data() + s * pixels, wide,
                                     expected.data() + s * in_stride);
    EXPECT_TRUE(same_bits(dx, expected));
  }
}

// --------------------------------------------------------------- shapes ---

TEST(Shapes, DensePropagation) {
  prionn::util::Rng rng(1);
  nn::Dense layer(8, 3, rng);
  EXPECT_EQ(layer.output_shape({8}), (prionn::tensor::Shape{3}));
  EXPECT_THROW(layer.output_shape({9}), std::invalid_argument);
  EXPECT_THROW(layer.output_shape({2, 4}), std::invalid_argument);
}

TEST(Shapes, Conv2dPropagation) {
  prionn::util::Rng rng(1);
  nn::Conv2d layer(3, 8, 3, 3, 1, 1, 1, rng);
  EXPECT_EQ(layer.output_shape({3, 64, 64}),
            (prionn::tensor::Shape{8, 64, 64}));
  EXPECT_THROW(layer.output_shape({2, 64, 64}), std::invalid_argument);
}

TEST(Shapes, Conv2dStrideShrinks) {
  prionn::util::Rng rng(1);
  nn::Conv2d layer(1, 4, 3, 3, 2, 1, 1, rng);
  EXPECT_EQ(layer.output_shape({1, 9, 9}), (prionn::tensor::Shape{4, 5, 5}));
}

TEST(Shapes, PoolPropagation) {
  nn::MaxPool2d pool(2, 2);
  EXPECT_EQ(pool.output_shape({4, 8, 8}), (prionn::tensor::Shape{4, 4, 4}));
  EXPECT_THROW(pool.output_shape({4, 1, 1}), std::invalid_argument);
  nn::MaxPool2d pool1(1, 4);
  EXPECT_EQ(pool1.output_shape({2, 1, 64}), (prionn::tensor::Shape{2, 1, 16}));
}

TEST(Shapes, FlattenCollapses) {
  nn::Flatten f;
  EXPECT_EQ(f.output_shape({4, 8, 8}), (prionn::tensor::Shape{256}));
}

// ---------------------------------------------------------------- loss ---

TEST(Loss, CrossEntropyKnownValue) {
  // Two classes, logits {0, 0}: p = 0.5, loss = ln 2.
  Tensor logits({1, 2});
  const std::vector<std::uint32_t> labels = {0};
  const auto r = nn::softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
  // Gradient: p - onehot = {0.5 - 1, 0.5}.
  EXPECT_NEAR(r.grad[0], -0.5f, 1e-6f);
  EXPECT_NEAR(r.grad[1], 0.5f, 1e-6f);
}

TEST(Loss, CrossEntropyGradRowsSumToZero) {
  const Tensor logits = random_tensor({5, 7}, 21);
  const std::vector<std::uint32_t> labels = {0, 1, 2, 3, 4};
  const auto r = nn::softmax_cross_entropy(logits, labels);
  for (std::size_t n = 0; n < 5; ++n) {
    float row = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) row += r.grad.at(n, c);
    EXPECT_NEAR(row, 0.0f, 1e-5f);
  }
}

TEST(Loss, CrossEntropyRejectsBadLabels) {
  Tensor logits({2, 3});
  const std::vector<std::uint32_t> bad = {0, 3};
  EXPECT_THROW(nn::softmax_cross_entropy(logits, bad), std::out_of_range);
  const std::vector<std::uint32_t> mismatch = {0};
  EXPECT_THROW(nn::softmax_cross_entropy(logits, mismatch),
               std::invalid_argument);
}

// ------------------------------------------------------------ dropout ---

TEST(Dropout, InferenceIsIdentity) {
  nn::Dropout layer(0.5);
  const Tensor x = random_tensor({4, 8}, 22);
  const Tensor y = layer.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  nn::Dropout layer(0.5);
  Tensor x({1, 10000}, 1.0f);
  const Tensor y = layer.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(y[i], 2.0f, 1e-6f);  // inverted scaling 1/(1-0.5)
    total += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.05);
  EXPECT_NEAR(total / y.size(), 1.0, 0.1);  // expectation preserved
}

TEST(Dropout, BackwardUsesSameMask) {
  nn::Dropout layer(0.3);
  Tensor x({1, 100}, 1.0f);
  const Tensor y = layer.forward(x, /*training=*/true);
  Tensor g({1, 100}, 1.0f);
  const Tensor gx = layer.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(gx[i], y[i]);
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(nn::Dropout(-0.1), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(1.0), std::invalid_argument);
}

// ---------------------------------------------------------- optimisers ---

TEST(Optimizer, SgdStepDirection) {
  Tensor w({2}, std::vector<float>{1.0f, 1.0f});
  Tensor g({2}, std::vector<float>{0.5f, -0.5f});
  nn::Sgd opt(0.1);
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], 0.95f, 1e-6f);
  EXPECT_NEAR(w[1], 1.05f, 1e-6f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Tensor w({1}, std::vector<float>{0.0f});
  Tensor g({1}, std::vector<float>{1.0f});
  nn::Sgd opt(1.0, 0.9);
  opt.step({&w}, {&g});
  const float first = w[0];
  opt.step({&w}, {&g});
  const float second_step = w[0] - first;
  EXPECT_NEAR(first, -1.0f, 1e-6f);
  EXPECT_NEAR(second_step, -1.9f, 1e-6f);
}

TEST(Optimizer, SgdWeightDecayShrinks) {
  Tensor w({1}, std::vector<float>{1.0f});
  Tensor g({1}, std::vector<float>{0.0f});
  nn::Sgd opt(0.1, 0.0, 0.5);
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(Optimizer, AdamFirstStepMagnitude) {
  // With bias correction, the first Adam step is ~lr regardless of scale.
  Tensor w({1}, std::vector<float>{0.0f});
  Tensor g({1}, std::vector<float>{123.0f});
  nn::Adam opt(0.01);
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], -0.01f, 1e-4f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimise (w - 3)^2.
  Tensor w({1}, std::vector<float>{0.0f});
  nn::Adam opt(0.1);
  for (int i = 0; i < 500; ++i) {
    Tensor g({1}, std::vector<float>{2.0f * (w[0] - 3.0f)});
    opt.step({&w}, {&g});
  }
  EXPECT_NEAR(w[0], 3.0f, 0.05f);
}

TEST(Optimizer, RejectsNonPositiveLr) {
  EXPECT_THROW(nn::Sgd(0.0), std::invalid_argument);
  EXPECT_THROW(nn::Adam(-1.0), std::invalid_argument);
}

TEST(Optimizer, MismatchedParamsThrow) {
  Tensor w({1});
  nn::Sgd opt(0.1);
  EXPECT_THROW(opt.step({&w}, {}), std::invalid_argument);
}

// ------------------------------------------------------------- network ---

namespace {

/// Tiny 2-class spiral-ish task: class = (x0 * x1 > 0).
void make_xor_data(Tensor& x, std::vector<std::uint32_t>& y, std::size_t n,
                   std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  x = Tensor({n, 2});
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0), b = rng.uniform(-1.0, 1.0);
    x.at(i, 0) = static_cast<float>(a);
    x.at(i, 1) = static_cast<float>(b);
    y[i] = (a * b > 0.0) ? 1 : 0;
  }
}

nn::Network make_mlp(std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  nn::Network net;
  net.emplace<nn::Dense>(2, 16, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(16, 2, rng);
  return net;
}

}  // namespace

TEST(Network, LearnsXor) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 256, 31);
  auto net = make_mlp(32);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 60;
  fit.batch_size = 32;
  const auto report = net.fit(x, y, opt, fit);
  EXPECT_LT(report.final_loss(), report.epoch_loss.front());
  EXPECT_GT(net.accuracy(x, y), 0.9);
}

TEST(Network, WarmStartImproves) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 256, 33);
  auto net = make_mlp(34);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 10;
  net.fit(x, y, opt, fit);
  const double acc1 = net.accuracy(x, y);
  net.fit(x, y, opt, fit);  // continue training — warm start
  net.fit(x, y, opt, fit);
  const double acc2 = net.accuracy(x, y);
  EXPECT_GE(acc2, acc1 - 0.02);  // monotone up to batch noise
  EXPECT_GT(acc2, 0.85);
}

TEST(Network, PredictClassesMatchesArgmaxOfProbabilities) {
  auto net = make_mlp(35);
  const Tensor x = random_tensor({8, 2}, 36);
  const auto classes = net.predict_classes(x);
  const Tensor probs = net.predict_probabilities(x);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t cls =
        probs.at(i, 0) >= probs.at(i, 1) ? 0u : 1u;
    EXPECT_EQ(classes[i], cls);
    EXPECT_NEAR(probs.at(i, 0) + probs.at(i, 1), 1.0f, 1e-5f);
  }
}

TEST(Network, OutputShapeComposition) {
  prionn::util::Rng rng(37);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 3, 1, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 8 * 8, 10, rng);
  EXPECT_EQ(net.output_shape({1, 16, 16}), (prionn::tensor::Shape{10}));
  EXPECT_GT(net.parameter_count(), 0u);
  const auto text = net.summary({1, 16, 16});
  EXPECT_NE(text.find("conv2d"), std::string::npos);
  EXPECT_NE(text.find("dense"), std::string::npos);
}

TEST(Network, SaveLoadRoundTripPreservesPredictions) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 64, 38);
  auto net = make_mlp(39);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 5;
  net.fit(x, y, opt, fit);

  std::stringstream ss;
  net.save(ss);
  auto loaded = nn::Network::load(ss);
  const auto before = net.predict_classes(x);
  const auto after = loaded.predict_classes(x);
  EXPECT_EQ(before, after);
}

TEST(Network, SaveLoadAllLayerKinds) {
  prionn::util::Rng rng(40);
  nn::Network net;
  // A rectangular kernel with unequal padding and a rectangular pool, so
  // a loader that swapped the per-axis fields would change the shapes.
  net.emplace<nn::Conv2d>(1, 2, 3, 5, 1, 1, 2, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2, 4);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dropout>(0.2);
  net.emplace<nn::Dense>(2 * 4 * 2, 6, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(6, 3, rng);

  std::stringstream ss;
  net.save(ss);
  auto loaded = nn::Network::load(ss);
  EXPECT_EQ(loaded.depth(), net.depth());
  const Tensor x = random_tensor({2, 1, 8, 8}, 41);
  const Tensor a = net.forward(x, false);
  const Tensor b = loaded.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Network, LoadRejectsBadMagic) {
  std::stringstream ss("garbage data here");
  EXPECT_THROW(nn::Network::load(ss), std::runtime_error);
}

TEST(Network, LoadRejectsUnknownLayerKind) {
  // A well-formed frame whose one layer tag names a kind the loader
  // table does not have: batch normalisation is not part of the model
  // zoo, and the 1-D layers, tanh and sigmoid were removed.
  for (const std::string kind :
       {"batchnorm", "conv1d", "maxpool1d", "tanh", "sigmoid"}) {
    SCOPED_TRACE(kind);
    std::stringstream ss;
    const std::uint32_t magic = 0x50524e4e, depth = 1;
    const auto len = static_cast<std::uint32_t>(kind.size());
    ss.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    ss.write(reinterpret_cast<const char*>(&depth), sizeof(depth));
    ss.write(reinterpret_cast<const char*>(&len), sizeof(len));
    ss.write(kind.data(), static_cast<std::streamsize>(kind.size()));
    try {
      nn::load_network(ss);
      ADD_FAILURE() << "load_network accepted a " << kind << " layer";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown layer kind '" + kind +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Network, Conv1dNetworkTrains) {
  // Signal classification: class 1 if the mean of the signal is positive.
  // The signals are one-row images, convolved and pooled along the row.
  prionn::util::Rng rng(42);
  const std::size_t n = 128;
  Tensor x({n, 1, 1, 16});
  std::vector<std::uint32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double offset = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < 16; ++j)
      x.at(i, 0, 0, j) = static_cast<float>(offset + 0.1 * rng.normal());
    y[i] = offset > 0.0 ? 1 : 0;
  }
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 1, 3, 1, 0, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(1, 4);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(16, 2, rng);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 30;
  net.fit(x, y, opt, fit);
  EXPECT_GT(net.accuracy(x, y), 0.9);
}

TEST(Network, LrDecayScheduleRestoresBaseRate) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 64, 45);
  auto net = make_mlp(46);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 5;
  fit.lr_decay_per_epoch = 0.5;
  net.fit(x, y, opt, fit);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.01);  // restored after fit
}

TEST(Network, EarlyStoppingHaltsOnPlateau) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 64, 47);
  auto net = make_mlp(48);
  // A tiny learning rate plateaus immediately.
  nn::Adam opt(1e-9);
  nn::FitOptions fit;
  fit.epochs = 50;
  fit.early_stop_patience = 3;
  fit.min_loss_delta = 1e-3;
  const auto report = net.fit(x, y, opt, fit);
  EXPECT_LT(report.epoch_loss.size(), 50u);
  EXPECT_GE(report.epoch_loss.size(), 3u);
}

TEST(Network, GradientClippingBounds) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 32, 43);
  auto net = make_mlp(44);
  nn::Adam opt(0.01);
  // Train one clipped batch; gradients afterwards must respect the bound.
  net.train_batch(x, y, opt, /*gradient_clip=*/1e-4);
  for (const auto* g : net.gradients())
    for (std::size_t i = 0; i < g->size(); ++i)
      EXPECT_LE(std::abs((*g)[i]), 1e-4f + 1e-7f);
}

namespace {

/// Conv-first (and, with `dense_first`, Dense-first) nets whose first
/// layer has a parameters-only backward.
nn::Network make_first_layer_net(bool dense_first, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  nn::Network net;
  if (dense_first) {
    net.emplace<nn::Dense>(2 * 8 * 8, 24, rng);
    net.emplace<nn::Relu>();
  } else {
    net.emplace<nn::Conv2d>(2, 4, 3, 3, 1, 1, 1, rng);
    net.emplace<nn::Relu>();
    net.emplace<nn::MaxPool2d>(2, 2);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(4 * 4 * 4, 24, rng);
    net.emplace<nn::Relu>();
  }
  net.emplace<nn::Dropout>(0.2, seed + 1);
  net.emplace<nn::Dense>(24, 5, rng);
  return net;
}

}  // namespace

// train_batch skips the first layer's input gradient (nothing reads it);
// the parameter gradients and the Adam step must not notice.
TEST(Network, TrainBatchSkippingInputGradientMatchesFullBackward) {
  for (const bool dense_first : {false, true}) {
    SCOPED_TRACE(dense_first ? "dense first" : "conv2d first");
    const Tensor x = dense_first ? random_tensor({6, 2 * 8 * 8}, 71)
                                 : random_tensor({6, 2, 8, 8}, 71);
    const std::vector<std::uint32_t> y = {0, 4, 2, 1, 3, 0};
    auto skipping = make_first_layer_net(dense_first, 72);
    auto full = make_first_layer_net(dense_first, 72);
    nn::Adam skipping_opt(0.01), full_opt(0.01);
    for (int step = 0; step < 3; ++step) {
      const double loss = skipping.train_batch(x, y, skipping_opt);

      full.zero_gradients();
      const auto reference =
          nn::softmax_cross_entropy(full.forward(x, /*training=*/true), y);
      const Tensor grad_x = full.backward(reference.grad);
      EXPECT_EQ(grad_x.shape(), x.shape());
      EXPECT_EQ(loss, reference.value);
      const auto skipped_grads = skipping.gradients();
      const auto full_grads = full.gradients();
      ASSERT_EQ(skipped_grads.size(), full_grads.size());
      for (std::size_t i = 0; i < full_grads.size(); ++i)
        EXPECT_TRUE(same_bits(*skipped_grads[i], *full_grads[i]))
            << "step " << step << " gradient " << i;

      full_opt.step(full.parameters(), full_grads);
      const auto skipped_params = skipping.parameters();
      const auto full_params = full.parameters();
      for (std::size_t i = 0; i < full_params.size(); ++i)
        EXPECT_TRUE(same_bits(*skipped_params[i], *full_params[i]))
            << "step " << step << " parameter " << i;
    }
  }
}

TEST(Network, LayerTimingCountersAreKeyedByPosition) {
  auto net = make_mlp(49);  // dense, relu, dense: two layers of one kind
  const Tensor x = random_tensor({4, 2}, 50);
  auto& reg = prionn::obs::registry();
  const auto value = [&](const char* name) {
    return reg.counter(name).value();
  };
  const std::uint64_t fwd0 = value("prionn_nn_forward_ns_total_00_dense");
  const std::uint64_t fwd2 = value("prionn_nn_forward_ns_total_02_dense");
  const std::uint64_t bwd2 = value("prionn_nn_backward_ns_total_02_dense");
  prionn::obs::set_layer_timing(true);
  net.forward(x, /*training=*/true);
  net.backward(random_tensor({4, 2}, 51));
  prionn::obs::set_layer_timing(false);
  if (!prionn::obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  EXPECT_GT(value("prionn_nn_forward_ns_total_00_dense"), fwd0);
  EXPECT_GT(value("prionn_nn_forward_ns_total_02_dense"), fwd2);
  EXPECT_GT(value("prionn_nn_backward_ns_total_02_dense"), bwd2);
  // Off again: a forward pass leaves every counter alone.
  const std::uint64_t after = value("prionn_nn_forward_ns_total_00_dense");
  net.forward(x, /*training=*/false);
  EXPECT_EQ(value("prionn_nn_forward_ns_total_00_dense"), after);
}

namespace {

/// FNV-1a over the bytes of each value's bit pattern.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  }
};

/// Digest of two Adam steps of a zoo model on one fixed batch of 33: both
/// losses' bits, then every updated parameter.
std::uint64_t two_step_digest(prionn::core::ModelKind kind,
                              prionn::core::ModelPreset preset,
                              std::size_t channels) {
  prionn::core::ModelConfig config;
  config.kind = kind;
  config.preset = preset;
  config.channels = channels;
  const std::size_t batch = 33;
  // The 1D-CNN reads the grid as one (C, 1, rows * cols) row.
  const Tensor x =
      kind == prionn::core::ModelKind::kCnn1d
          ? random_tensor(
                {batch, config.channels, 1, config.rows * config.cols}, 81)
          : random_tensor({batch, config.channels, config.rows, config.cols},
                          81);
  std::vector<std::uint32_t> y(batch);
  for (std::size_t i = 0; i < batch; ++i)
    y[i] = static_cast<std::uint32_t>((i * 131) % config.classes);
  nn::Network net = prionn::core::build_model(config);
  nn::Adam opt(1e-3);
  Fnv1a digest;
  for (int step = 0; step < 2; ++step) {
    const double loss = net.train_batch(x, y, opt);
    digest.add_bytes(&loss, sizeof loss);
  }
  for (const auto* p : net.parameters())
    digest.add_bytes(p->data(), p->size() * sizeof(float));
  return digest.h;
}

}  // namespace

// Pins the training arithmetic of every model kind: the conv lowering, the
// three GEMM entry points (gemm_bt is shared by Dense and the Conv2d
// weight gradient) and the optimiser. The cnn1d pins were computed on the
// former 1-D layers (Conv1d, MaxPool1d); the 1D-CNN's Conv2d/MaxPool2d
// form must keep their bits. A kernel change that is meant
// to be a pure speed-up must leave these digests alone.
TEST(Network, TrainStepsMatchPinnedDigest) {
  using prionn::core::ModelKind;
  using prionn::core::ModelPreset;
  struct Case {
    const char* name;
    ModelKind kind;
    ModelPreset preset;
    std::size_t channels;
    std::uint64_t digest_fma, digest_no_fma;
  };
  // The one-hot transform's 128 channels give 1152 patch rows (896 for
  // the 1D-CNN's 1x7 kernel): more than one GEMM depth block, and conv 0's
  // backward splits into sub-batches (of 4 for the 1D-CNN at batch 33).
  // A target with FMA (PRIONN_NATIVE on a current x86-64) contracts
  // a * b + c into one rounding; a baseline x86-64 build cannot, so each
  // case has a pin for either kind of build.
  const Case cases[] = {
      {"cnn2d fast", ModelKind::kCnn2d, ModelPreset::kFast, 4,
       0xcf97c7d9b0b2a7fcull, 0x60941c91c8143bb9ull},
      {"cnn2d paper", ModelKind::kCnn2d, ModelPreset::kPaper, 4,
       0x60ffa1e6c1dc6c96ull, 0x4285eb7f8414892aull},
      {"cnn2d fast one-hot", ModelKind::kCnn2d, ModelPreset::kFast, 128,
       0xd28b60854f6f1c26ull, 0xfd88e1dfed9339a4ull},
      {"dense fast", ModelKind::kFullyConnected, ModelPreset::kFast, 4,
       0xa7be99e8a7d23ea1ull, 0xb50bf8dbe4834e0dull},
      {"cnn1d fast", ModelKind::kCnn1d, ModelPreset::kFast, 4,
       0x4671eeeb5c6e54a1ull, 0xc7ab2e168da6fabbull},
      {"cnn1d fast one-hot", ModelKind::kCnn1d, ModelPreset::kFast, 128,
       0xd508fd031e8e0af0ull, 0x20fe148bdc3ed0c5ull},
      {"cnn1d paper", ModelKind::kCnn1d, ModelPreset::kPaper, 4,
       0xf43a019f866cae35ull, 0x1f23b7c7ab62511eull},
  };
#if defined(__FMA__)
  constexpr bool kFma = true;
#else
  constexpr bool kFma = false;
#endif
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::uint64_t got = two_step_digest(c.kind, c.preset, c.channels);
    EXPECT_EQ(got, kFma ? c.digest_fma : c.digest_no_fma)
        << std::hex << "got 0x" << got;
  }
}
