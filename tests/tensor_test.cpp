// Unit tests for the tensor substrate: storage, GEMM against a naive
// reference, element-wise ops, and the im2col/col2im lowering (including
// the adjoint property that backs convolution backprop, and bit-for-bit
// equality of the row-run lowering and the implicit GEMMs with a
// per-element reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace t = prionn::tensor;

// -------------------------------------------------------------- Tensor ---

TEST(Tensor, ShapeSize) {
  EXPECT_EQ(t::shape_size({2, 3, 4}), 24u);
  EXPECT_EQ(t::shape_size({}), 0u);
  EXPECT_EQ(t::shape_size({7}), 7u);
}

TEST(Tensor, ZeroInitialised) {
  t::Tensor x({3, 4});
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], 0.0f);
  EXPECT_EQ(x.rank(), 2u);
  EXPECT_EQ(x.dim(0), 3u);
}

TEST(Tensor, FillConstructor) {
  t::Tensor x({2, 2}, 3.5f);
  EXPECT_EQ(x.at(1, 1), 3.5f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(t::Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, MultiIndexAccess) {
  t::Tensor x({2, 3, 4});
  x.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(x[1 * 12 + 2 * 4 + 3], 9.0f);
  t::Tensor y({2, 2, 2, 2});
  y.at(1, 0, 1, 0) = 5.0f;
  EXPECT_EQ(y[8 + 2], 5.0f);
}

TEST(Tensor, ReshapePreservesData) {
  t::Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  x.reshape({3, 2});
  EXPECT_EQ(x.at(2, 1), 6.0f);
  EXPECT_THROW(x.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, RowExtraction) {
  t::Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const auto r = x.row(1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 4.0f);
  EXPECT_EQ(r[2], 6.0f);
}

TEST(Tensor, Arithmetic) {
  t::Tensor a({3}, std::vector<float>{1, 2, 3});
  t::Tensor b({3}, std::vector<float>{10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[0], 2.0f);
  a.axpy(0.5f, b);
  EXPECT_EQ(a[1], 14.0f);
}

TEST(Tensor, ArithmeticShapeMismatchThrows) {
  t::Tensor a({3}), b({4});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
}

TEST(Tensor, SaveLoadRoundTrip) {
  t::Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  std::stringstream ss;
  x.save(ss);
  const auto y = t::Tensor::load(ss);
  EXPECT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Tensor, LoadRejectsGarbage) {
  std::stringstream ss("not a tensor");
  EXPECT_THROW(t::Tensor::load(ss), std::runtime_error);
}

// ---------------------------------------------------------------- GEMM ---

namespace {

void naive_gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = alpha * acc + beta * c[i * n + j];
    }
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

struct GemmShape {
  std::size_t m, k, n;
};

class GemmVsNaive : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmVsNaive, MatchesReference) {
  const auto [m, k, n] = GetParam();
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  auto c_fast = random_vec(m * n, 3);
  auto c_ref = c_fast;
  t::gemm(m, k, n, 0.5f, a.data(), b.data(), 0.25f, c_fast.data());
  naive_gemm(m, k, n, 0.5f, a.data(), b.data(), 0.25f, c_ref.data());
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVsNaive,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{4, 36, 64},
                      GemmShape{5, 7, 33},   // edge tiles in every direction
                      GemmShape{16, 72, 100}, GemmShape{33, 257, 65},
                      GemmShape{64, 300, 512}, GemmShape{3, 1000, 31}));

TEST(Gemm, BetaZeroOverwritesNanSafely) {
  // beta == 0 must ignore prior contents entirely.
  std::vector<float> a = {1.0f}, b = {2.0f};
  std::vector<float> c = {std::nanf("")};
  t::gemm(1, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

class GemmTransposed : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTransposed, AtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const auto at = random_vec(k * m, 4);  // stored k x m
  const auto b = random_vec(k * n, 5);
  std::vector<float> c_fast(m * n, 0.0f), c_ref(m * n, 0.0f);
  // Reference: transpose manually.
  std::vector<float> a(m * k);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i) a[i * k + p] = at[p * m + i];
  t::gemm_at(m, k, n, 1.0f, at.data(), b.data(), 0.0f, c_fast.data());
  naive_gemm(m, k, n, 1.0f, a.data(), b.data(), 0.0f, c_ref.data());
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f);
}

TEST_P(GemmTransposed, BtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const auto a = random_vec(m * k, 6);
  const auto bt = random_vec(n * k, 7);  // stored n x k
  std::vector<float> c_fast(m * n, 1.0f), c_ref(m * n, 1.0f);
  std::vector<float> b(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) b[p * n + j] = bt[j * k + p];
  t::gemm_bt(m, k, n, 1.0f, a.data(), bt.data(), 1.0f, c_fast.data());
  naive_gemm(m, k, n, 1.0f, a.data(), b.data(), 1.0f, c_ref.data());
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmTransposed,
                         ::testing::Values(GemmShape{3, 5, 7},
                                           GemmShape{16, 33, 65},
                                           GemmShape{37, 128, 41}));

// ----------------------------------------------------------------- Ops ---

TEST(Ops, Argmax) {
  const std::vector<float> xs = {1, 5, 3, 5};
  EXPECT_EQ(t::argmax(xs), 1u);  // first of the ties
}

TEST(Ops, SoftmaxSumsToOne) {
  std::vector<float> xs = {1, 2, 3};
  t::softmax_inplace(xs);
  EXPECT_NEAR(xs[0] + xs[1] + xs[2], 1.0f, 1e-6f);
  EXPECT_GT(xs[2], xs[1]);
}

TEST(Ops, SoftmaxNumericallyStable) {
  std::vector<float> xs = {1000.0f, 1000.0f};
  t::softmax_inplace(xs);
  EXPECT_NEAR(xs[0], 0.5f, 1e-6f);
  std::vector<float> ys = {-1000.0f, 0.0f};
  t::softmax_inplace(ys);
  EXPECT_NEAR(ys[1], 1.0f, 1e-6f);
}

TEST(Ops, SoftmaxRows) {
  t::Tensor x({2, 2}, std::vector<float>{0, 0, 10, 0});
  t::softmax_rows_inplace(x);
  EXPECT_NEAR(x.at(0, 0), 0.5f, 1e-6f);
  EXPECT_GT(x.at(1, 0), 0.99f);
}

TEST(Ops, SumDotNorm) {
  const std::vector<float> a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_FLOAT_EQ(t::sum(a), 6.0f);
  EXPECT_FLOAT_EQ(t::dot(a, b), 32.0f);
  EXPECT_FLOAT_EQ(t::squared_norm(a), 14.0f);
}

TEST(Ops, ClipInPlace) {
  std::vector<float> xs = {-5, -1, 0, 1, 5};
  const auto clipped = t::clip_inplace(xs, 2.0f);
  EXPECT_EQ(clipped, 2u);
  EXPECT_FLOAT_EQ(xs[0], -2.0f);
  EXPECT_FLOAT_EQ(xs[4], 2.0f);
  EXPECT_FLOAT_EQ(xs[2], 0.0f);
}

// -------------------------------------------------------------- im2col ---

TEST(Im2col, IdentityKernelNoPad) {
  // 1x1 kernel: cols should equal the image.
  t::Conv2dGeom g;
  g.channels = 1;
  g.height = g.width = 3;
  g.kernel_h = g.kernel_w = 1;
  const std::vector<float> image = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(g.patch_rows() * g.patch_cols());
  t::im2col(g, image.data(), cols.data());
  EXPECT_EQ(cols, image);
}

TEST(Im2col, KnownSmallCase) {
  // 2x2 image, 2x2 kernel, stride 1, no pad: one output pixel capturing
  // the whole image.
  t::Conv2dGeom g;
  g.channels = 1;
  g.height = g.width = 2;
  g.kernel_h = g.kernel_w = 2;
  const std::vector<float> image = {1, 2, 3, 4};
  std::vector<float> cols(4);
  t::im2col(g, image.data(), cols.data());
  EXPECT_EQ(cols, image);
  EXPECT_EQ(g.out_h(), 1u);
}

TEST(Im2col, PaddingYieldsZeros) {
  t::Conv2dGeom g;
  g.channels = 1;
  g.height = g.width = 1;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  const std::vector<float> image = {7};
  std::vector<float> cols(9);
  t::im2col(g, image.data(), cols.data());
  // Centre tap sees the pixel; every other tap is padding.
  float total = 0.0f;
  for (const float v : cols) total += v;
  EXPECT_FLOAT_EQ(total, 7.0f);
  EXPECT_FLOAT_EQ(cols[4], 7.0f);
}

struct ConvGeomCase {
  std::size_t channels, height, width, kernel, stride, pad;
};

namespace {

// <im2col(x), y> == <x, col2im(y)> — the defining property of the adjoint,
// which is exactly what convolution backprop relies on.
void expect_adjoint(const t::Conv2dGeom& g) {
  const std::size_t image_size = g.channels * g.height * g.width;
  const std::size_t cols_size = g.patch_rows() * g.patch_cols();
  const auto x = random_vec(image_size, 11);
  const auto y = random_vec(cols_size, 12);

  std::vector<float> ix(cols_size);
  t::im2col(g, x.data(), ix.data());
  std::vector<float> cy(image_size, 0.0f);
  t::col2im(g, y.data(), cy.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols_size; ++i)
    lhs += static_cast<double>(ix[i]) * y[i];
  for (std::size_t i = 0; i < image_size; ++i)
    rhs += static_cast<double>(x[i]) * cy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace

class Im2colAdjoint : public ::testing::TestWithParam<ConvGeomCase> {};

TEST_P(Im2colAdjoint, DotProductIdentity) {
  const auto p = GetParam();
  t::Conv2dGeom g;
  g.channels = p.channels;
  g.height = p.height;
  g.width = p.width;
  g.kernel_h = g.kernel_w = p.kernel;
  g.stride_h = g.stride_w = p.stride;
  g.pad_h = g.pad_w = p.pad;
  expect_adjoint(g);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(ConvGeomCase{1, 4, 4, 3, 1, 1},
                      ConvGeomCase{3, 8, 8, 3, 1, 1},
                      ConvGeomCase{2, 6, 5, 3, 2, 0},
                      ConvGeomCase{4, 7, 7, 5, 1, 2},
                      ConvGeomCase{1, 16, 16, 3, 1, 0}));

TEST(Im2col, StridedMatchesContiguous) {
  t::Conv2dGeom g;
  g.channels = 2;
  g.height = g.width = 5;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  const auto image = random_vec(2 * 5 * 5, 13);
  const std::size_t pc = g.patch_cols(), pr = g.patch_rows();
  std::vector<float> plain(pr * pc);
  t::im2col(g, image.data(), plain.data());
  // Strided with a wider leading dimension and an offset.
  const std::size_t ld = pc * 3;
  std::vector<float> wide(pr * ld, -1.0f);
  t::im2col_strided(g, image.data(), wide.data() + pc, ld);
  for (std::size_t r = 0; r < pr; ++r)
    for (std::size_t c = 0; c < pc; ++c)
      ASSERT_EQ(plain[r * pc + c], wide[r * ld + pc + c]);
}

// The 1D-CNN's lowering: a 1 x k kernel padded by (0, k / 2) over a
// one-row image, here with stride 2.
TEST(Im2col, AdjointIdentityOneRow) {
  t::Conv2dGeom g;
  g.channels = 3;
  g.height = 1;
  g.width = 17;
  g.kernel_h = 1;
  g.kernel_w = 5;
  g.stride_h = g.stride_w = 2;
  g.pad_w = 2;
  expect_adjoint(g);
}

TEST(Im2col, GeometryArithmetic2d) {
  t::Conv2dGeom g;
  g.channels = 4;
  g.height = 64;
  g.width = 64;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  EXPECT_EQ(g.out_h(), 64u);
  EXPECT_EQ(g.out_w(), 64u);
  EXPECT_EQ(g.patch_rows(), 36u);
  EXPECT_EQ(g.patch_cols(), 4096u);
}

// The 1D-CNN's geometry: one row, 1 x 3 kernel, padding (0, 1), as in its
// third conv.
TEST(Im2col1d, GeometryArithmetic) {
  t::Conv2dGeom g;
  g.channels = 2;
  g.height = 1;
  g.width = 10;
  g.kernel_h = 1;
  g.kernel_w = 3;
  g.pad_w = 1;
  EXPECT_EQ(g.out_h(), 1u);
  EXPECT_EQ(g.out_w(), 10u);
  EXPECT_EQ(g.patch_rows(), 6u);
  EXPECT_EQ(g.patch_cols(), 10u);
}

// ------------------------------------------- row-run lowering vs reference ---

namespace {

/// Per-element reference lowering: one bounds decision per tap, patch row r
/// of the sample written at cols[r * ld ..].
void reference_im2col(const t::Conv2dGeom& g, const float* image, float* cols,
                      std::size_t ld) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride_h + kh) -
                static_cast<std::ptrdiff_t>(g.pad_h);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride_w + kw) -
                static_cast<std::ptrdiff_t>(g.pad_w);
            const bool inside =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.height) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.width);
            cols[row * ld + oy * ow + ox] =
                inside ? image[(c * g.height + static_cast<std::size_t>(iy)) *
                                   g.width +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
}

/// Per-element reference adjoint, accumulating in the same row order.
void reference_col2im(const t::Conv2dGeom& g, const float* cols,
                      std::size_t ld, float* image_grad) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride_h + kh) -
                static_cast<std::ptrdiff_t>(g.pad_h);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride_w + kw) -
                static_cast<std::ptrdiff_t>(g.pad_w);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.height) ||
                ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.width))
              continue;
            image_grad[(c * g.height + static_cast<std::size_t>(iy)) *
                           g.width +
                       static_cast<std::size_t>(ix)] +=
                cols[row * ld + oy * ow + ox];
          }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every (stride, pad, kernel) combination on a 13 x 17 image, whose rows
/// are not a multiple of any tile width, so GEMM panels and depth blocks
/// end mid output row; then the 1D-CNN's 1 x 5 and 1 x 7 kernels, padded
/// by (0, k / 2), over a one-row image of odd length.
std::vector<t::Conv2dGeom> odd_geometries(std::size_t channels) {
  std::vector<t::Conv2dGeom> out;
  for (const std::size_t stride : {1, 2})
    for (const std::size_t pad : {0, 1, 2})
      for (const auto& [kh, kw] : {std::pair<std::size_t, std::size_t>{1, 1},
                                  {3, 3},
                                  {5, 3}}) {
        t::Conv2dGeom g;
        g.channels = channels;
        g.height = 13;
        g.width = 17;
        g.kernel_h = kh;
        g.kernel_w = kw;
        g.stride_h = g.stride_w = stride;
        g.pad_h = g.pad_w = pad;
        out.push_back(g);
      }
  for (const std::size_t stride : {1, 2})
    for (const std::size_t kw : {5, 7}) {
      t::Conv2dGeom g;
      g.channels = channels;
      g.height = 1;
      g.width = 211;
      g.kernel_h = 1;
      g.kernel_w = kw;
      g.stride_h = g.stride_w = stride;
      g.pad_w = kw / 2;
      out.push_back(g);
    }
  return out;
}

std::string describe(const t::Conv2dGeom& g, std::size_t batch) {
  return "C=" + std::to_string(g.channels) + " k=" +
         std::to_string(g.kernel_h) + "x" + std::to_string(g.kernel_w) +
         " stride=" + std::to_string(g.stride_h) +
         " pad=" + std::to_string(g.pad_h) + "x" + std::to_string(g.pad_w) +
         " batch=" + std::to_string(batch);
}

/// The reference patch matrix of a whole batch: pr x (batch * pixels).
std::vector<float> reference_patches(const t::Conv2dGeom& g,
                                     const std::vector<float>& images,
                                     std::size_t batch) {
  const std::size_t pixels = g.patch_cols(), wide = batch * pixels;
  const std::size_t in_stride = g.channels * g.height * g.width;
  std::vector<float> cols(g.patch_rows() * wide);
  for (std::size_t s = 0; s < batch; ++s)
    reference_im2col(g, images.data() + s * in_stride,
                     cols.data() + s * pixels, wide);
  return cols;
}

t::BlockSource batch_patches(const t::Conv2dGeom& g, const float* images) {
  return [&g, images](std::size_t r0, std::size_t r1, std::size_t c0,
                      std::size_t c1, float* out, std::size_t ld) {
    t::im2col_block(g, images, r0, r1, c0, c1, out, ld);
  };
}

}  // namespace

TEST(Lowering, RowRunIm2colMatchesPerElementReference) {
  for (const std::size_t channels : {3, 32}) {
    for (const auto& g : odd_geometries(channels)) {
      SCOPED_TRACE(describe(g, 1));
      const std::size_t pr = g.patch_rows(), pixels = g.patch_cols();
      const auto image = random_vec(channels * g.height * g.width, 21);
      // A wider leading dimension and an offset, as a batch column block.
      const std::size_t ld = 2 * pixels + 5;
      std::vector<float> expected(pr * ld, -1.0f), got(pr * ld, -1.0f);
      reference_im2col(g, image.data(), expected.data() + 3, ld);
      t::im2col_strided(g, image.data(), got.data() + 3, ld);
      EXPECT_TRUE(same_bits(got, expected));
    }
  }
}

TEST(Lowering, BlocksOfABatchMatchPerElementReference) {
  // Arbitrary row and column ranges of a 3-sample batch's patch matrix:
  // ranges that start and end mid output row and straddle samples.
  const std::size_t batch = 3;
  for (const std::size_t channels : {3, 32}) {
    for (const auto& g : odd_geometries(channels)) {
      SCOPED_TRACE(describe(g, batch));
      const std::size_t pr = g.patch_rows(), wide = batch * g.patch_cols();
      const auto images =
          random_vec(batch * channels * g.height * g.width, 22);
      const auto cols = reference_patches(g, images, batch);
      prionn::util::Rng rng(23);
      // A uniform index in [lo, hi).
      const auto pick = [&](std::size_t lo, std::size_t hi) {
        return static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1));
      };
      for (int trial = 0; trial < 20; ++trial) {
        const std::size_t r0 = pick(0, pr), r1 = pick(r0 + 1, pr + 1);
        const std::size_t q0 = pick(0, wide), q1 = pick(q0 + 1, wide + 1);
        const std::size_t ld = q1 - q0 + 2;
        std::vector<float> got((r1 - r0) * ld, -1.0f);
        std::vector<float> expected(got.size(), -1.0f);
        for (std::size_t r = r0; r < r1; ++r)
          std::copy(cols.begin() + r * wide + q0, cols.begin() + r * wide + q1,
                    expected.begin() + (r - r0) * ld);
        t::im2col_block(g, images.data(), r0, r1, q0, q1, got.data(), ld);
        ASSERT_TRUE(same_bits(got, expected))
            << "rows [" << r0 << ", " << r1 << ") cols [" << q0 << ", " << q1
            << ")";
      }
    }
  }
}

TEST(Lowering, RowRunCol2imMatchesPerElementReference) {
  for (const std::size_t channels : {3, 32}) {
    for (const auto& g : odd_geometries(channels)) {
      SCOPED_TRACE(describe(g, 1));
      const std::size_t pixels = g.patch_cols();
      const std::size_t ld = pixels + 7;
      const auto cols = random_vec(g.patch_rows() * ld, 24);
      // Accumulates onto existing values, as col2im's contract allows.
      const auto start = random_vec(channels * g.height * g.width, 25);
      std::vector<float> expected = start, got = start;
      reference_col2im(g, cols.data(), ld, expected.data());
      t::col2im_strided(g, cols.data(), ld, got.data());
      EXPECT_TRUE(same_bits(got, expected));
    }
  }
}

TEST(Lowering, ImplicitGemmsMatchMaterialisedPatches) {
  // The implicit forward against gemm() over the reference patch matrix,
  // and the implicit weight gradient against the stored-operand gemm_bt().
  // C = 32 gives pr > kKC (more than one depth block per panel).
  const std::size_t oc = 6;
  for (const std::size_t channels : {3, 32}) {
    for (const std::size_t batch : {1, 33}) {
      for (const auto& g : odd_geometries(channels)) {
        if (channels == 32 && g.kernel_h == 1) continue;  // pr < kKC
        SCOPED_TRACE(describe(g, batch));
        const std::size_t pr = g.patch_rows(),
                          wide = batch * g.patch_cols();
        const auto images =
            random_vec(batch * channels * g.height * g.width, 26);
        const auto cols = reference_patches(g, images, batch);
        const auto w = random_vec(oc * pr, 27);

        std::vector<float> expected(oc * wide), got(oc * wide, -1.0f);
        t::gemm(oc, pr, wide, 1.0f, w.data(), cols.data(), 0.0f,
                expected.data());
        t::gemm(oc, pr, wide, w.data(), batch_patches(g, images.data()),
                [&](std::size_t c0, std::size_t c1, const float* block,
                    std::size_t ld) {
                  for (std::size_t i = 0; i < oc; ++i)
                    std::copy(block + i * ld, block + i * ld + (c1 - c0),
                              got.begin() + i * wide + c0);
                });
        EXPECT_TRUE(same_bits(got, expected)) << "forward";

        const auto dy = random_vec(oc * wide, 28);
        std::vector<float> dw_expected = random_vec(oc * pr, 29);
        std::vector<float> dw_got = dw_expected;
        t::gemm_bt(oc, wide, pr, 1.0f, dy.data(), cols.data(), 1.0f,
                   dw_expected.data());
        t::gemm_bt(oc, wide, pr, 1.0f, dy.data(),
                   batch_patches(g, images.data()), 1.0f, dw_got.data());
        EXPECT_TRUE(same_bits(dw_got, dw_expected)) << "weight gradient";
      }
    }
  }
}

TEST(Lowering, PaddedGemmBtMatchesGemmOverTranspose) {
  // gemm_bt pads its transposed depth blocks to whole micro-tiles and sums
  // the blocks' partials in block order. That must give the bits of a
  // plain gemm over the explicit transpose, which has no padding.
  for (const auto& [m, k, n] :
       {GemmShape{4, 1000, 36}, GemmShape{5, 300, 7}, GemmShape{2, 64, 960}}) {
    SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n));
    const auto a = random_vec(m * k, 30);
    const auto b = random_vec(n * k, 31);  // stored n x k
    std::vector<float> bt(k * n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
    std::vector<float> got(m * n, 0.0f), expected(m * n, 0.0f);
    t::gemm_bt(m, k, n, 1.0f, a.data(), b.data(), 0.0f, got.data());
    t::gemm(m, k, n, 1.0f, a.data(), bt.data(), 0.0f, expected.data());
    EXPECT_TRUE(same_bits(got, expected));
  }
}
