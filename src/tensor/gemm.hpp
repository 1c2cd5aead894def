// Single-precision general matrix multiply, the computational core of both
// the dense layers and the im2col convolutions. Cache-blocked with a
// vectorisable micro-kernel. Large products split over the calling
// thread's lanes of the global pool, only along the kernel's own tile
// boundaries, so every result is bit-identical at any thread count.
//
// The implicit entry points take B from a BlockSource instead of memory:
// each thread asks for the cache-sized block of B it is about to multiply,
// so a convolution lowers its patches straight into the GEMM's panels and
// never stores the whole patch matrix. They give the same bits as the
// stored-operand calls on the matrix the source describes.
#pragma once

#include <cstddef>
#include <functional>

namespace prionn::tensor {

/// Rows of the register micro-tile. Every product walks C's rows in tiles
/// of kMR from row 0, and an element's arithmetic depends only on its row
/// of A, its column of B and the kKC depth blocks, each walked from 0; no
/// entry point splits C's rows anywhere but on a tile boundary. So A may
/// stack the rows of several operands into one product, and each operand's
/// rows get the bits of its own product, provided each operand's block
/// starts on a kMR multiple. Conv2d's stacked layer 0 pads every block but
/// the last with zero rows to keep that (nn/conv2d.hpp).
inline constexpr std::size_t kMR = 4;

/// C[m x n] = alpha * A[m x k] * B[k x n] + beta * C.  Row-major, no alias.
void gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C[m x n] = alpha * A^T[k x m] * B[k x n] + beta * C (A stored k x m).
void gemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c);

/// C[m x n] = alpha * A[m x k] * B^T[n x k] + beta * C (B stored n x k).
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c);

/// Writes the block rows [r0, r1) x columns [c0, c1) of a matrix that is
/// never stored whole to `out`, row-major with leading dimension `ld`.
/// Called concurrently from several threads, on disjoint blocks.
using BlockSource =
    std::function<void(std::size_t r0, std::size_t r1, std::size_t c0,
                       std::size_t c1, float* out, std::size_t ld)>;

/// Receives the finished columns [c0, c1) of a product: an m x (c1 - c0)
/// block at `block` with leading dimension `ld`. Called concurrently on
/// disjoint column ranges.
using BlockSink = std::function<void(std::size_t c0, std::size_t c1,
                                     const float* block, std::size_t ld)>;

/// Implicit gemm: C = A[m x k] * B[k x n], where `b` produces B one
/// kKC x kNC panel at a time and `c` takes each kNC-wide column block of C
/// once it is complete, while it is still in cache. Same bits as
/// gemm(m, k, n, 1, A, B, 0, C).
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const BlockSource& b, const BlockSink& c);

/// Implicit gemm_bt: B (stored n x k) comes from `b`, one depth block of
/// kKC columns at a time. Same bits as the stored-operand gemm_bt.
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const BlockSource& b, float beta, float* c);

}  // namespace prionn::tensor
