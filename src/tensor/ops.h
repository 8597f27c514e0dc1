// Linear-algebra and elementwise kernels over spans / Matrix.
//
// Everything takes std::span so the same kernels run on whole parameter
// vectors, weight-block views, and data rows without copies. Sizes are
// asserted in debug builds and validated (throw) where a mismatch is a
// plausible user error rather than an internal bug.

#pragma once

#include <span>

#include "tensor/tensor.h"

namespace fed {

// ---- vector ops -----------------------------------------------------------

// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
// x *= alpha
void scale(std::span<double> x, double alpha);
// dst = src
void copy(std::span<const double> src, std::span<double> dst);
// <x, y>
double dot(std::span<const double> x, std::span<const double> y);
// ||x||_2
double norm2(std::span<const double> x);
// ||x - y||_2
double distance2(std::span<const double> x, std::span<const double> y);
// sum of entries
double sum(std::span<const double> x);
// dst = a - b
void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> dst);
// dst = a + b
void add(std::span<const double> a, std::span<const double> b,
         std::span<double> dst);
// elementwise dst = a * b (Hadamard)
void hadamard(std::span<const double> a, std::span<const double> b,
              std::span<double> dst);
// x = 0
void zero(std::span<double> x);

// ---- matrix ops -----------------------------------------------------------
//
// Reduction contract: every output element is one add chain over the
// reduction index in ascending order, starting from 0 (or from the
// output, for the _accumulate forms). So gemv's y[r] is bit for bit
// dot(a.row(r), x), each column of gemm is the gemv of that column, and
// gemm_transposed_accumulate equals the matching sequence of ger calls.
// Blocking and vectorization run across outputs, never across the
// reduction index, and the build uses no fast-math or FMA contraction.

// y = A x           (A: m x n, x: n, y: m)
void gemv(const ConstMatrixView& a, std::span<const double> x,
          std::span<double> y);
// y = A^T x         (A: m x n, x: m, y: n)
void gemv_transposed(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y);
// y += A x
void gemv_accumulate(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y);
// y += A^T x
void gemv_transposed_accumulate(const ConstMatrixView& a,
                                std::span<const double> x,
                                std::span<double> y);
// C = A B           (A: m x k, B: k x n, C: m x n)
void gemm(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c);
// C = A^T B         (A: k x m, B: k x n, C: m x n)
void gemm_transposed(const ConstMatrixView& a, const ConstMatrixView& b,
                     MatrixView c);
// C += A^T B
void gemm_transposed_accumulate(const ConstMatrixView& a,
                                const ConstMatrixView& b, MatrixView c);
// A += alpha * x y^T  (rank-1 update; A: m x n, x: m, y: n)
void ger(double alpha, std::span<const double> x, std::span<const double> y,
         MatrixView a);

// ---- nonlinearities --------------------------------------------------------

double sigmoid(double x);
double tanh_activation(double x);
// In-place numerically stable softmax over `logits`.
void softmax_inplace(std::span<double> logits);
// log(sum(exp(logits))) computed stably.
double log_sum_exp(std::span<const double> logits);
// Index of the maximum element. Requires non-empty input; ties -> lowest.
std::size_t argmax(std::span<const double> x);

// ---- misc -------------------------------------------------------------------

// Returns true if all entries are finite.
bool all_finite(std::span<const double> x);

// Weighted mean of several equal-length vectors: dst = sum_i w[i] * rows[i].
// Weights need not sum to one; caller normalizes if desired.
void weighted_sum(std::span<const Vector* const> rows,
                  std::span<const double> weights, std::span<double> dst);

}  // namespace fed
