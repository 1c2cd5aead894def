#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/thread_pool.hpp"

namespace prionn::tensor {

namespace {

// Register-tiled micro-kernel: an MR x NR accumulator block lives in
// vector registers for the whole k-strip, so each element of C is loaded
// and stored once per k-block instead of once per k iteration. NR = 32
// floats is two AVX-512 lanes (or four AVX2 lanes); MR = 4 keeps
// MR * NR / 32 + spare well under the register budget.
constexpr std::size_t kMR = 4;
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

/// dst (cols x rows) = src (rows x cols, leading dimension ld) transposed,
/// in cache tiles so neither side is walked at a long stride for long.
void transpose_block(const float* src, std::size_t ld, std::size_t rows,
                     std::size_t cols, float* dst) noexcept {
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::size_t i1 = std::min(rows, i0 + kTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t j1 = std::min(cols, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j)
          dst[j * rows + i] = src[i * ld + j];
    }
  }
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

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c) {
  // The depth (k) is the long axis here: dW = dY * cols^T sums over every
  // pixel of the batch. Each kKC depth block d gets its own partial
  // product A[:, d] * B[:, d]^T, formed from a transpose of just that
  // block of B (stored n x k). The partials are then added to C in block
  // order, which is the order in which one blocked gemm() over the whole
  // transpose accumulates C, so the result is the same at any lane width.
  const std::size_t blocks = (k + kKC - 1) / kKC;
  thread_local std::vector<float> partial_buffer;
  float* partials = grown(partial_buffer, blocks * m * n);
  const auto block_products = [&](std::size_t lo, std::size_t hi) {
    thread_local std::vector<float> bt_buffer;
    float* bt = grown(bt_buffer, kKC * n);
    for (std::size_t d = lo; d < hi; ++d) {
      const std::size_t pc = d * kKC;
      const std::size_t kc = std::min(kKC, k - pc);
      transpose_block(b + pc, k, n, kc, bt);
      const Operands o{a + pc, k, bt, n, partials + d * m * n, n};
      gemm_block(0, m, 0, n, kc, 1.0f, o, 0.0f);
    }
  };
  if (run_serially(m, k, n, blocks))
    block_products(0, blocks);
  else
    util::ThreadPool::global().parallel_for_chunks(0, blocks, block_products);

  scale_block(c, n, 0, m, 0, n, beta);
  const std::size_t mn = m * n;
  for (std::size_t d = 0; d < blocks; ++d) {
    const float* part = partials + d * mn;
    for (std::size_t e = 0; e < mn; ++e) c[e] += alpha * part[e];
  }
}

void gemv(std::size_t m, std::size_t k, const float* a, const float* x,
          float beta, float* y) {
  for (std::size_t i = 0; i < m; ++i) {
    float acc = beta == 0.0f ? 0.0f : beta * y[i];
    const float* ai = a + i * k;
    for (std::size_t p = 0; p < k; ++p) acc += ai[p] * x[p];
    y[i] = acc;
  }
}

}  // namespace prionn::tensor
