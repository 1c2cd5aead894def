// Single-precision general matrix multiply, the computational core of both
// the dense layers and the im2col convolutions. Cache-blocked with a
// vectorisable micro-kernel. Large products split over the calling
// thread's lanes of the global pool, only along the kernel's own tile
// boundaries, so every result is bit-identical at any thread count.
#pragma once

#include <cstddef>

namespace prionn::tensor {

/// C[m x n] = alpha * A[m x k] * B[k x n] + beta * C.  Row-major, no alias.
void gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C[m x n] = alpha * A^T[k x m] * B[k x n] + beta * C (A stored k x m).
void gemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c);

/// C[m x n] = alpha * A[m x k] * B^T[n x k] + beta * C (B stored n x k).
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c);

/// y[m] = A[m x k] * x[k] (+ y if beta == 1).
void gemv(std::size_t m, std::size_t k, const float* a, const float* x,
          float beta, float* y);

}  // namespace prionn::tensor
