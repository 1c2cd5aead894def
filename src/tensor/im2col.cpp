#include "tensor/im2col.hpp"

#include <algorithm>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace prionn::tensor {

namespace {

/// The outputs o in [lo, hi) whose tap o * stride + k - pad lands inside
/// [0, extent); the rest of [0, out) reads the zero padding.
struct Interior {
  std::size_t lo, hi;
};

Interior interior(std::size_t k, std::size_t stride, std::size_t pad,
                  std::size_t extent, std::size_t out) noexcept {
  // o * stride + k >= pad, and o * stride < extent + pad - k.
  const std::size_t lo = pad > k ? (pad - k + stride - 1) / stride : 0;
  const std::size_t limit = extent + pad;
  const std::size_t hi = limit > k ? (limit - k + stride - 1) / stride : 0;
  const std::size_t h = std::min(hi, out);
  return {std::min(lo, h), h};
}

// The runs below are one image row or less (8 to 64 floats in the paper's
// models), short enough that a memcpy/memset call per run costs more than
// the copy. Where the target has AVX-512 they are inline vector moves with
// a masked tail.
#if defined(__AVX512F__)
inline __mmask16 tail_mask(std::size_t n) noexcept {
  return static_cast<__mmask16>((1u << n) - 1u);
}
#endif

void copy_run(const float* src, std::size_t n, float* dst) noexcept {
#if defined(__AVX512F__)
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(dst + i, _mm512_loadu_ps(src + i));
  if (i < n) {
    const __mmask16 mask = tail_mask(n - i);
    _mm512_mask_storeu_ps(dst + i, mask, _mm512_maskz_loadu_ps(mask, src + i));
  }
#else
  std::copy_n(src, n, dst);
#endif
}

void zero_run(std::size_t n, float* dst) noexcept {
#if defined(__AVX512F__)
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) _mm512_storeu_ps(dst + i, _mm512_setzero_ps());
  if (i < n)
    _mm512_mask_storeu_ps(dst + i, tail_mask(n - i), _mm512_setzero_ps());
#else
  std::fill_n(dst, n, 0.0f);
#endif
}

/// One patch row's taps of one output row over the columns [xa, xb):
/// zeroed pad edges around the in-bounds run, which for stride 1 is one
/// contiguous copy of the image row.
void lower_run(const Conv2dGeom& g, const float* image_row, Interior xs,
               std::size_t kw, std::size_t xa, std::size_t xb,
               float* dst) noexcept {
  const std::size_t a = std::clamp(xs.lo, xa, xb);
  const std::size_t b = std::clamp(xs.hi, a, xb);
  zero_run(a - xa, dst);
  if (g.stride_w == 1 && a < b) {
    copy_run(image_row + (a + kw - g.pad_w), b - a, dst + (a - xa));
  } else {
    for (std::size_t ox = a; ox < b; ++ox)
      dst[ox - xa] = image_row[ox * g.stride_w + kw - g.pad_w];
  }
  zero_run(xb - b, dst + (b - xa));
}

}  // namespace

void im2col_block(const Conv2dGeom& g, const float* images, std::size_t r0,
                  std::size_t r1, std::size_t q0, std::size_t q1, float* out,
                  std::size_t ld) noexcept {
  if (q0 >= q1) return;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t pixels = oh * ow;
  const std::size_t plane_size = g.height * g.width;
  const std::size_t taps = g.kernel_h * g.kernel_w;
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t c = r / taps, kh = r % taps / g.kernel_w,
                      kw = r % taps % g.kernel_w;
    const Interior ys = interior(kh, g.stride_h, g.pad_h, g.height, oh);
    const Interior xs = interior(kw, g.stride_w, g.pad_w, g.width, ow);
    float* dst = out + (r - r0) * ld;
    // Walk [q0, q1) one output row at a time: sample s, row oy, columns
    // [xa, xb).
    std::size_t s = q0 / pixels, oy = q0 % pixels / ow, xa = q0 % ow;
    for (std::size_t q = q0; q < q1;) {
      const std::size_t xb = std::min(ow, xa + (q1 - q));
      if (oy >= ys.lo && oy < ys.hi) {
        const std::size_t iy = oy * g.stride_h + kh - g.pad_h;
        const float* image_row =
            images + (s * g.channels + c) * plane_size + iy * g.width;
        lower_run(g, image_row, xs, kw, xa, xb, dst);
      } else {
        zero_run(xb - xa, dst);
      }
      dst += xb - xa;
      q += xb - xa;
      xa = 0;
      if (++oy == oh) {
        oy = 0;
        ++s;
      }
    }
  }
}

void im2col_strided(const Conv2dGeom& g, const float* image, float* cols,
                    std::size_t ld) noexcept {
  im2col_block(g, image, 0, g.patch_rows(), 0, g.patch_cols(), cols, ld);
}

void im2col(const Conv2dGeom& g, const float* image, float* cols) noexcept {
  im2col_strided(g, image, cols, g.patch_cols());
}

void col2im_strided(const Conv2dGeom& g, const float* cols, std::size_t ld,
                    float* image_grad) noexcept {
  // The same row runs as im2col_block, added back. Each image element
  // takes at most one tap per patch row, and rows are visited in order,
  // so every element sums its taps in patch-row order.
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t taps = g.kernel_h * g.kernel_w;
  for (std::size_t r = 0; r < g.patch_rows(); ++r) {
    const std::size_t c = r / taps, kh = r % taps / g.kernel_w,
                      kw = r % taps % g.kernel_w;
    const Interior ys = interior(kh, g.stride_h, g.pad_h, g.height, oh);
    const Interior xs = interior(kw, g.stride_w, g.pad_w, g.width, ow);
    float* plane = image_grad + c * g.height * g.width;
    const float* row = cols + r * ld;
    if (xs.lo == xs.hi) continue;
    for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
      float* image_row = plane + (oy * g.stride_h + kh - g.pad_h) * g.width;
      const float* in = row + oy * ow;
      if (g.stride_w == 1) {
        float* dst = image_row + (xs.lo + kw - g.pad_w);
        for (std::size_t ox = xs.lo; ox < xs.hi; ++ox)
          dst[ox - xs.lo] += in[ox];
      } else {
        for (std::size_t ox = xs.lo; ox < xs.hi; ++ox)
          image_row[ox * g.stride_w + kw - g.pad_w] += in[ox];
      }
    }
  }
}

void col2im(const Conv2dGeom& g, const float* cols,
            float* image_grad) noexcept {
  col2im_strided(g, cols, g.patch_cols(), image_grad);
}

}  // namespace prionn::tensor
