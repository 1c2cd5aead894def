// im2col / col2im lowering: turns convolution into GEMM, the classic
// approach used by Caffe-era frameworks and the right trade-off for the
// small images (64 x 64 script grids) this library convolves.
#pragma once

#include <cstddef>

namespace prionn::tensor {

struct Conv2dGeom {
  std::size_t channels = 1;
  std::size_t height = 1, width = 1;
  std::size_t kernel_h = 3, kernel_w = 3;
  std::size_t stride_h = 1, stride_w = 1;
  std::size_t pad_h = 0, pad_w = 0;

  std::size_t out_h() const noexcept {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  std::size_t out_w() const noexcept {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the lowered patch matrix: one per (c, kh, kw) tap.
  std::size_t patch_rows() const noexcept {
    return channels * kernel_h * kernel_w;
  }
  /// Columns of the lowered patch matrix: one per output pixel.
  std::size_t patch_cols() const noexcept { return out_h() * out_w(); }
};

/// Lower the block rows [r0, r1) x columns [q0, q1) of a whole batch's
/// patch matrix. `images` holds the samples back to back (C x H x W each);
/// column q is output pixel q % patch_cols() of sample q / patch_cols().
/// Block row r - r0 is written at out[(r - r0) * ld ..]. Each
/// (c, kh, kw, oy) row is lowered as one run: for stride 1 a contiguous
/// copy of the in-bounds taps plus zeroed pad edges, otherwise a gather.
/// This is the one lowering routine; the wrappers below and the implicit
/// GEMM panels of nn::Conv2d all call it.
void im2col_block(const Conv2dGeom& g, const float* images, std::size_t r0,
                  std::size_t r1, std::size_t q0, std::size_t q1, float* out,
                  std::size_t ld) noexcept;

/// Lower `image` (C x H x W, row-major) to `cols` (patch_rows x patch_cols).
/// Out-of-bounds taps (padding) contribute zero.
void im2col(const Conv2dGeom& g, const float* image, float* cols) noexcept;

/// Strided variant for batched lowering: patch row r of this sample is
/// written at cols[r * ld ..], so several samples can share one wide patch
/// matrix (each occupying a contiguous column block) and be multiplied by
/// the kernel in a single GEMM.
void im2col_strided(const Conv2dGeom& g, const float* image, float* cols,
                    std::size_t ld) noexcept;

/// Scatter-add the lowered gradient back to image space (the adjoint of
/// im2col). `image_grad` must be zeroed by the caller beforehand if it
/// should not accumulate.
void col2im(const Conv2dGeom& g, const float* cols,
            float* image_grad) noexcept;

/// Strided adjoint matching im2col_strided.
void col2im_strided(const Conv2dGeom& g, const float* cols, std::size_t ld,
                    float* image_grad) noexcept;

}  // namespace prionn::tensor
