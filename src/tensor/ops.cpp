#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

// Kernel spans compile to nothing unless -DFEDPROX_PROFILE_KERNELS=ON;
// these run per minibatch, so release benches must not even pay the
// enabled check (obs/profiler.h).
#include "obs/profiler.h"

namespace fed {

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

void copy(std::span<const double> src, std::span<double> dst) {
  assert(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

double dot(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double distance2(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> dst) {
  assert(a.size() == b.size() && a.size() == dst.size());
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] - b[i];
}

void add(std::span<const double> a, std::span<const double> b,
         std::span<double> dst) {
  assert(a.size() == b.size() && a.size() == dst.size());
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] + b[i];
}

void hadamard(std::span<const double> a, std::span<const double> b,
              std::span<double> dst) {
  assert(a.size() == b.size() && a.size() == dst.size());
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] * b[i];
}

void zero(std::span<double> x) { std::fill(x.begin(), x.end(), 0.0); }

namespace {

// Two doubles side by side: a GCC/Clang vector extension whose lanes are
// ordinary IEEE multiplies and adds, SSE2 on baseline x86-64. Kernels put
// independent outputs in the two lanes, never two terms of one sum.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// y[r + i] += a.row(r + i)·x for 2 * kPairs consecutive rows, each row
// one add chain over k, two rows per Pair.
template <std::size_t kPairs>
void gemv_rows(const ConstMatrixView& a, std::span<const double> x,
               std::span<double> y, std::size_t r) {
  const double* rows[2 * kPairs];
  for (std::size_t i = 0; i < 2 * kPairs; ++i) rows[i] = a.row(r + i).data();
  Pair acc[kPairs] = {};
  for (std::size_t k = 0; k < x.size(); ++k) {
    const Pair xk = {x[k], x[k]};
    for (std::size_t q = 0; q < kPairs; ++q) {
      acc[q] += Pair{rows[2 * q][k], rows[2 * q + 1][k]} * xk;
    }
  }
  for (std::size_t q = 0; q < kPairs; ++q) {
    y[r + 2 * q] += acc[q][0];
    y[r + 2 * q + 1] += acc[q][1];
  }
}

// Register-blocked C = init + op(A)·B, where op(A) is A or Aᵀ and init is
// 0 or C itself. Every output is one add chain over k in index order
// (the order of gemv's dot and of a sequence of ger/axpy updates); the
// blocking only runs up to 4x4 such chains side by side, vectorized
// across the columns of B and C, never across k.
template <bool kTransA, bool kAccumulate>
class GemmKernel {
 public:
  GemmKernel(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c)
      : a_(a), b_(b), c_(c), depth_(kTransA ? a.rows() : a.cols()) {}

  void run() {
    const std::size_t m = c_.rows(), n = c_.cols();
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) row_block<4>(i, n);
    for (; i < m; ++i) row_block<1>(i, n);
  }

 private:
  template <std::size_t kRows>
  void row_block(std::size_t i, std::size_t n) {
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) pair_tile<kRows, 2>(i, j);
    if (j + 2 <= n) {
      pair_tile<kRows, 1>(i, j);
      j += 2;
    }
    if (j < n) column_tile<kRows>(i, j);
  }

  double a_at(std::size_t i, std::size_t k) const {
    return kTransA ? a_(k, i) : a_(i, k);
  }

  // kRows x (2 * kPairs) outputs starting at (i, j).
  template <std::size_t kRows, std::size_t kPairs>
  void pair_tile(std::size_t i, std::size_t j) {
    Pair acc[kRows][kPairs];
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t q = 0; q < kPairs; ++q) {
        acc[r][q] = kAccumulate ? load_pair(&c_(i + r, j + 2 * q)) : Pair{};
      }
    }
    for (std::size_t k = 0; k < depth_; ++k) {
      const double* b_row = b_.row(k).data() + j;
      Pair b[kPairs];
      for (std::size_t q = 0; q < kPairs; ++q) b[q] = load_pair(b_row + 2 * q);
      for (std::size_t r = 0; r < kRows; ++r) {
        const double a_ik = a_at(i + r, k);
        const Pair a_pair = {a_ik, a_ik};
        for (std::size_t q = 0; q < kPairs; ++q) acc[r][q] += a_pair * b[q];
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t q = 0; q < kPairs; ++q) {
        std::memcpy(&c_(i + r, j + 2 * q), &acc[r][q], sizeof(Pair));
      }
    }
  }

  // kRows x 1 outputs at (i, j): the last column of an odd-width C.
  template <std::size_t kRows>
  void column_tile(std::size_t i, std::size_t j) {
    double acc[kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[r] = kAccumulate ? c_(i + r, j) : 0.0;
    }
    for (std::size_t k = 0; k < depth_; ++k) {
      const double b_kj = b_(k, j);
      for (std::size_t r = 0; r < kRows; ++r) acc[r] += a_at(i + r, k) * b_kj;
    }
    for (std::size_t r = 0; r < kRows; ++r) c_(i + r, j) = acc[r];
  }

  const ConstMatrixView& a_;
  const ConstMatrixView& b_;
  MatrixView c_;
  std::size_t depth_;
};

}  // namespace

void gemv(const ConstMatrixView& a, std::span<const double> x,
          std::span<double> y) {
  zero(y);
  gemv_accumulate(a, x, y);
}

void gemv_accumulate(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y) {
  assert(x.size() == a.cols() && y.size() == a.rows());
  FED_PROFILE_KERNEL_SPAN("gemv", "kernel", "m",
                          static_cast<std::int64_t>(a.rows()), "n",
                          static_cast<std::int64_t>(a.cols()));
  // Eight rows per pass: eight independent add chains instead of one,
  // each still summed over k in index order, so y[r] is bit for bit
  // y[r] + dot(a.row(r), x).
  const std::size_t m = a.rows();
  std::size_t r = 0;
  for (; r + 8 <= m; r += 8) gemv_rows<4>(a, x, y, r);
  for (; r + 2 <= m; r += 2) gemv_rows<1>(a, x, y, r);
  if (r < m) y[r] += dot(a.row(r), x);
}

void gemv_transposed(const ConstMatrixView& a, std::span<const double> x,
                     std::span<double> y) {
  zero(y);
  gemv_transposed_accumulate(a, x, y);
}

void gemv_transposed_accumulate(const ConstMatrixView& a,
                                std::span<const double> x,
                                std::span<double> y) {
  assert(x.size() == a.rows() && y.size() == a.cols());
  FED_PROFILE_KERNEL_SPAN("gemv_t", "kernel", "m",
                          static_cast<std::int64_t>(a.rows()), "n",
                          static_cast<std::int64_t>(a.cols()));
  // Four rows per pass over y; each y[i] still takes row r's term before
  // row r+1's, as a sequence of axpy calls would.
  const std::size_t m = a.rows(), n = a.cols();
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const double* a0 = a.row(r).data();
    const double* a1 = a.row(r + 1).data();
    const double* a2 = a.row(r + 2).data();
    const double* a3 = a.row(r + 3).data();
    const double x0 = x[r], x1 = x[r + 1], x2 = x[r + 2], x3 = x[r + 3];
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = (((y[i] + x0 * a0[i]) + x1 * a1[i]) + x2 * a2[i]) + x3 * a3[i];
    }
  }
  for (; r < m; ++r) axpy(x[r], a.row(r), y);
}

void gemm(const ConstMatrixView& a, const ConstMatrixView& b, MatrixView c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  FED_PROFILE_KERNEL_SPAN("gemm", "kernel", "m",
                          static_cast<std::int64_t>(a.rows()), "k",
                          static_cast<std::int64_t>(a.cols()), "n",
                          static_cast<std::int64_t>(b.cols()));
  GemmKernel<false, false>(a, b, c).run();
}

void gemm_transposed(const ConstMatrixView& a, const ConstMatrixView& b,
                     MatrixView c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_transposed: shape mismatch");
  }
  FED_PROFILE_KERNEL_SPAN("gemm_t", "kernel", "m",
                          static_cast<std::int64_t>(a.cols()), "k",
                          static_cast<std::int64_t>(a.rows()), "n",
                          static_cast<std::int64_t>(b.cols()));
  GemmKernel<true, false>(a, b, c).run();
}

void gemm_transposed_accumulate(const ConstMatrixView& a,
                                const ConstMatrixView& b, MatrixView c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_transposed_accumulate: shape mismatch");
  }
  FED_PROFILE_KERNEL_SPAN("gemm_t_acc", "kernel", "m",
                          static_cast<std::int64_t>(a.cols()), "k",
                          static_cast<std::int64_t>(a.rows()), "n",
                          static_cast<std::int64_t>(b.cols()));
  GemmKernel<true, true>(a, b, c).run();
}

void ger(double alpha, std::span<const double> x, std::span<const double> y,
         MatrixView a) {
  assert(x.size() == a.rows() && y.size() == a.cols());
  FED_PROFILE_KERNEL_SPAN("ger", "kernel", "m",
                          static_cast<std::int64_t>(a.rows()), "n",
                          static_cast<std::int64_t>(a.cols()));
  for (std::size_t r = 0; r < a.rows(); ++r) {
    axpy(alpha * x[r], y, a.row(r));
  }
}

double sigmoid(double x) {
  // Split by sign to avoid overflow in exp.
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double tanh_activation(double x) { return std::tanh(x); }

void softmax_inplace(std::span<double> logits) {
  assert(!logits.empty());
  const double m = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - m);
    total += v;
  }
  for (double& v : logits) v /= total;
}

double log_sum_exp(std::span<const double> logits) {
  assert(!logits.empty());
  const double m = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double v : logits) total += std::exp(v - m);
  return m + std::log(total);
}

std::size_t argmax(std::span<const double> x) {
  assert(!x.empty());
  return static_cast<std::size_t>(
      std::distance(x.begin(), std::max_element(x.begin(), x.end())));
}

bool all_finite(std::span<const double> x) {
  for (double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void weighted_sum(std::span<const Vector* const> rows,
                  std::span<const double> weights, std::span<double> dst) {
  if (rows.size() != weights.size()) {
    throw std::invalid_argument("weighted_sum: rows/weights size mismatch");
  }
  zero(dst);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i]->size() == dst.size());
    axpy(weights[i], *rows[i], dst);
  }
}

}  // namespace fed
