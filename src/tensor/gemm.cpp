#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "util/thread_pool.hpp"

namespace prionn::tensor {

namespace {

// Register-tiled micro-kernel: an MR x NR accumulator block lives in
// vector registers for the whole k-strip, so each element of C is loaded
// and stored once per k-block instead of once per k iteration. NR = 32
// floats is two AVX-512 lanes (or four AVX2 lanes); MR = kMR = 4
// (gemm.hpp) keeps MR * NR / 32 + spare well under the register budget.
constexpr std::size_t kNR = 32;
// Cache blocking: a kKC x kNC panel of B (~512 KiB) fits in L2.
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 512;

inline void micro_full(std::size_t kc, float alpha, const float* a,
                       std::size_t lda, const float* b, std::size_t ldb,
                       float* c, std::size_t ldc) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t i = 0; i < kMR; ++i) {
      const float aip = a[i * lda + p];
      for (std::size_t j = 0; j < kNR; ++j) acc[i][j] += aip * bp[j];
    }
  }
  for (std::size_t i = 0; i < kMR; ++i)
    for (std::size_t j = 0; j < kNR; ++j)
      c[i * ldc + j] += alpha * acc[i][j];
}

/// Edge kernel for remainder tiles (mr <= kMR, nr <= kNR).
inline void micro_edge(std::size_t mr, std::size_t nr, std::size_t kc,
                       float alpha, const float* a, std::size_t lda,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t i = 0; i < mr; ++i) {
      const float aip = a[i * lda + p];
      for (std::size_t j = 0; j < nr; ++j) acc[i][j] += aip * bp[j];
    }
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
}

/// Reuse a grow-only buffer: the products below run per mini-batch, so
/// their scratch is sized once instead of allocated on every call.
float* grown(std::vector<float>& buffer, std::size_t floats) {
  if (buffer.size() < floats) buffer.resize(floats);
  return buffer.data();
}

/// Row-major operands with explicit leading dimensions.
struct Operands {
  const float* a;
  std::size_t lda;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
};

/// C = beta * C on rows [row_lo, row_hi) x columns [col_lo, col_hi);
/// beta == 0 overwrites, so C may start out uninitialised.
void scale_block(float* c, std::size_t ldc, std::size_t row_lo,
                 std::size_t row_hi, std::size_t col_lo, std::size_t col_hi,
                 float beta) noexcept {
  if (beta == 1.0f) return;
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    float* ci = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(ci + col_lo, ci + col_hi, 0.0f);
    } else {
      for (std::size_t j = col_lo; j < col_hi; ++j) ci[j] *= beta;
    }
  }
}

/// The serial blocked product on the block rows [row_lo, row_hi) x columns
/// [col_lo, col_hi) of C: C = alpha * A * B + beta * C over depth k. An
/// element's arithmetic depends only on the kKC depth blocks, which every
/// call walks from 0. Splits of C that start rows on kMR multiples and
/// columns on kNC multiples also keep each element in the same micro-tile
/// as one whole-matrix call, so any such split gives the same bits.
void gemm_block(std::size_t row_lo, std::size_t row_hi, std::size_t col_lo,
                std::size_t col_hi, std::size_t k, float alpha,
                const Operands& o, float beta) {
  scale_block(o.c, o.ldc, row_lo, row_hi, col_lo, col_hi, beta);
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    for (std::size_t jc = col_lo; jc < col_hi; jc += kNC) {
      const std::size_t nc = std::min(kNC, col_hi - jc);
      for (std::size_t i = row_lo; i < row_hi; i += kMR) {
        const std::size_t mr = std::min(kMR, row_hi - i);
        const float* ai = o.a + i * o.lda + pc;
        for (std::size_t j = 0; j < nc; j += kNR) {
          const std::size_t nr = std::min(kNR, nc - j);
          const float* bj = o.b + pc * o.ldb + jc + j;
          float* cij = o.c + i * o.ldc + jc + j;
          if (mr == kMR && nr == kNR)
            micro_full(kc, alpha, ai, o.lda, bj, o.ldb, cij, o.ldc);
          else
            micro_edge(mr, nr, kc, alpha, ai, o.lda, bj, o.ldb, cij,
                       o.ldc);
        }
      }
    }
  }
}

#if defined(__AVX__)
/// Rows i and i + 4 of the tile's four columns from `col` on, as the two
/// 128-bit halves of one register.
inline __m256 row_pair(const float* src, std::size_t ld, std::size_t i,
                       std::size_t col) noexcept {
  return _mm256_insertf128_ps(
      _mm256_castps128_ps256(_mm_loadu_ps(src + i * ld + col)),
      _mm_loadu_ps(src + (i + 4) * ld + col), 1);
}

/// dst (8 x 8, leading dimension ldd) = the 8 x 8 tile at src (leading
/// dimension ld) transposed, in registers. The loads already pair row i
/// with row i + 4 in the two halves, so two rounds of in-lane shuffles
/// finish the job.
inline void transpose8x8(const float* src, std::size_t ld, float* dst,
                         std::size_t ldd) noexcept {
  constexpr int kLo = _MM_SHUFFLE(1, 0, 1, 0), kHi = _MM_SHUFFLE(3, 2, 3, 2);
  for (std::size_t col = 0; col < 8; col += 4) {
    const __m256 r0 = row_pair(src, ld, 0, col),
                 r1 = row_pair(src, ld, 1, col),
                 r2 = row_pair(src, ld, 2, col),
                 r3 = row_pair(src, ld, 3, col);
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1),
                 t1 = _mm256_unpackhi_ps(r0, r1),
                 t2 = _mm256_unpacklo_ps(r2, r3),
                 t3 = _mm256_unpackhi_ps(r2, r3);
    float* out = dst + col * ldd;
    _mm256_storeu_ps(out, _mm256_shuffle_ps(t0, t2, kLo));
    _mm256_storeu_ps(out + ldd, _mm256_shuffle_ps(t0, t2, kHi));
    _mm256_storeu_ps(out + 2 * ldd, _mm256_shuffle_ps(t1, t3, kLo));
    _mm256_storeu_ps(out + 3 * ldd, _mm256_shuffle_ps(t1, t3, kHi));
  }
}
#endif

/// dst (cols x rows, leading dimension ldd) = src (rows x cols, leading
/// dimension ld) transposed, with cols <= kKC. Where the target has AVX
/// the work is whole 8 x 8 tiles in registers: a ragged last group of rows
/// is copied into a zero-topped tile strip first, so dst may also get zero
/// columns [rows, rows rounded up to 8), and ldd must leave room for them.
/// Ragged columns go element by element.
void transpose_block(const float* src, std::size_t ld, std::size_t rows,
                     std::size_t cols, float* dst, std::size_t ldd) noexcept {
  std::size_t cols8 = 0;
#if defined(__AVX__)
  cols8 = cols / 8 * 8;
  const std::size_t rows8 = rows / 8 * 8;
  for (std::size_t j = 0; j < cols8; j += 8)
    for (std::size_t i = 0; i < rows8; i += 8)
      transpose8x8(src + i * ld + j, ld, dst + j * ldd + i, ldd);
  if (rows8 < rows) {
    float strip[8 * kKC];
    for (std::size_t i = 0; i < 8; ++i) {
      float* row = strip + i * kKC;
      if (rows8 + i < rows)
        std::copy_n(src + (rows8 + i) * ld, cols8, row);
      else
        std::fill_n(row, cols8, 0.0f);
    }
    for (std::size_t j = 0; j < cols8; j += 8)
      transpose8x8(strip + j, kKC, dst + j * ldd + rows8, ldd);
  }
#endif
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = cols8; j < cols; ++j)
      dst[j * ldd + i] = src[i * ld + j];
}

/// Below this many flops a product stays on the calling thread: the fork
/// would cost more than it saves.
constexpr std::size_t kParallelFlops = std::size_t{1} << 22;

bool run_serially(std::size_t m, std::size_t k, std::size_t n,
                  std::size_t units) {
  return 2 * m * k * n < kParallelFlops || units < 2 ||
         util::ThreadPool::global().lanes() <= 1;
}

}  // namespace

void gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
          const float* a, const float* b, float beta, float* c) {
  const Operands o{a, k, b, n, c, n};
  // Split along whichever dimension has more whole tiles: the wide, short
  // conv products into kNC column panels, tall ones into kMR row tiles.
  const std::size_t panels = (n + kNC - 1) / kNC;
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  if (run_serially(m, k, n, std::max(panels, row_tiles))) {
    gemm_block(0, m, 0, n, k, alpha, o, beta);
    return;
  }
  auto& pool = util::ThreadPool::global();
  if (panels >= row_tiles) {
    pool.parallel_for_chunks(0, panels, [&](std::size_t lo, std::size_t hi) {
      gemm_block(0, m, lo * kNC, std::min(hi * kNC, n), k, alpha, o, beta);
    });
  } else {
    pool.parallel_for_chunks(0, row_tiles,
                             [&](std::size_t lo, std::size_t hi) {
                               gemm_block(lo * kMR, std::min(hi * kMR, m), 0,
                                          n, k, alpha, o, beta);
                             });
  }
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const BlockSource& b, const BlockSink& c) {
  // Each kNC column panel runs on one thread: B's panel is produced one
  // kKC depth block at a time into an L2-sized buffer, multiplied by the
  // unchanged gemm_block into the panel's C block (beta = 0 on the first
  // depth block, then accumulate), and handed to the sink.
  const std::size_t panels = (n + kNC - 1) / kNC;
  const auto run_panels = [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<float> panel_buffer, block_buffer;
    float* panel = grown(panel_buffer, std::min(k, kKC) * std::min(n, kNC));
    float* block = grown(block_buffer, m * std::min(n, kNC));
    for (std::size_t jp = lo; jp < hi; ++jp) {
      const std::size_t c0 = jp * kNC, nc = std::min(kNC, n - c0);
      for (std::size_t pc = 0; pc < k; pc += kKC) {
        const std::size_t kc = std::min(kKC, k - pc);
        b(pc, pc + kc, c0, c0 + nc, panel, nc);
        const Operands o{a + pc, k, panel, nc, block, nc};
        gemm_block(0, m, 0, nc, kc, 1.0f, o, pc == 0 ? 0.0f : 1.0f);
      }
      c(c0, c0 + nc, block, nc);
    }
  };
  // Producing B costs far more per element than one row of the product:
  // conv 0 at batch 32 lowers its patches in 1.65 ms against 0.36 ms for
  // its M = 4 product. So the fork threshold counts each element of B as
  // kLoweringRows more rows of A; a batch-1 stacked layer 0 (M = 12)
  // then splits its panels over the lanes.
  constexpr std::size_t kLoweringRows = 4 * kMR;
  if (run_serially(m + kLoweringRows, k, n, panels))
    run_panels(0, panels);
  else
    util::ThreadPool::global().parallel_for_chunks(0, panels, run_panels);
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c) {
  // A^T access is strided; materialise the transpose once so the main loop
  // stays unit-stride. m*k is small relative to the m*k*n multiply.
  thread_local std::vector<float> at;
  float* t = grown(at, m * k);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i) t[i * k + p] = a[p * m + i];
  gemm(m, k, n, alpha, t, b, beta, c);
}

namespace {

/// Writes the kc x n transpose of B's depth block [pc, pc + kc) (B stored
/// n x k) at bt, leading dimension ldbt.
using DepthBlockTranspose = std::function<void(
    std::size_t pc, std::size_t kc, float* bt, std::size_t ldbt)>;

/// C = alpha * A[m x k] * B^T + beta * C, B (n x k) read through
/// `transpose`. The depth (k) is the long axis here: dW = dY * cols^T
/// sums over every pixel of the batch. Each kKC depth block d gets its own
/// partial product A[:, d] * B[:, d]^T, from a transpose of just that
/// block of B. The partials are then added to C in block order, which is
/// the order in which one blocked gemm() over the whole transpose
/// accumulates C, so the result is the same at any lane width. The
/// transpose is zero-padded to a kNR multiple of columns so every tile
/// runs the full micro-kernel (a column's arithmetic does not depend on
/// its neighbours); only the n valid columns are added to C.
void gemm_bt_blocks(std::size_t m, std::size_t k, std::size_t n, float alpha,
                    const float* a, const DepthBlockTranspose& transpose,
                    float beta, float* c) {
  const std::size_t blocks = (k + kKC - 1) / kKC;
  const std::size_t np = (n + kNR - 1) / kNR * kNR;
  thread_local std::vector<float> partial_buffer;
  float* partials = grown(partial_buffer, blocks * m * np);
  const auto block_products = [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<float> bt_buffer;
    float* bt = grown(bt_buffer, kKC * np);
    // The transposes below write only columns [0, n) and zeros: the
    // padding stays zero from one depth block to the next.
    for (std::size_t p = 0; p < kKC; ++p)
      std::fill(bt + p * np + n, bt + (p + 1) * np, 0.0f);
    for (std::size_t d = lo; d < hi; ++d) {
      const std::size_t pc = d * kKC;
      const std::size_t kc = std::min(kKC, k - pc);
      transpose(pc, kc, bt, np);
      const Operands o{a + pc, k, bt, np, partials + d * m * np, np};
      gemm_block(0, m, 0, np, kc, 1.0f, o, 0.0f);
    }
  };
  if (run_serially(m, k, n, blocks))
    block_products(0, blocks);
  else
    util::ThreadPool::global().parallel_for_chunks(0, blocks, block_products);

  scale_block(c, n, 0, m, 0, n, beta);
  for (std::size_t d = 0; d < blocks; ++d) {
    const float* part = partials + d * m * np;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += alpha * part[i * np + j];
  }
}

}  // namespace

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c) {
  gemm_bt_blocks(
      m, k, n, alpha, a,
      [&](std::size_t pc, std::size_t kc, float* bt, std::size_t ldbt) {
        transpose_block(b + pc, k, n, kc, bt, ldbt);
      },
      beta, c);
}

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const BlockSource& b, float beta, float* c) {
  // B's rows are produced a strip at a time into an L1-sized panel and
  // transposed from there.
  constexpr std::size_t kStrip = 16;
  gemm_bt_blocks(
      m, k, n, alpha, a,
      [&](std::size_t pc, std::size_t kc, float* bt, std::size_t ldbt) {
        thread_local std::vector<float> strip_buffer;
        float* strip = grown(strip_buffer, kStrip * kKC);
        for (std::size_t r = 0; r < n; r += kStrip) {
          const std::size_t rows = std::min(kStrip, n - r);
          b(r, r + rows, pc, pc + kc, strip, kc);
          transpose_block(strip, kc, rows, kc, bt + r, ldbt);
        }
      },
      beta, c);
}

}  // namespace prionn::tensor
