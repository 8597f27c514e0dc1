#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "support/rng.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace fed {
namespace {

TEST(VectorOps, AxpyAddsScaledVector) {
  Vector x{1.0, 2.0, 3.0};
  Vector y{10.0, 20.0, 30.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(VectorOps, ScaleAndZero) {
  Vector x{1.0, -2.0, 4.0};
  scale(x, 0.5);
  EXPECT_DOUBLE_EQ(x[1], -1.0);
  zero(x);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(VectorOps, DotAndNorms) {
  Vector x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  Vector y{0.0, 0.0};
  EXPECT_DOUBLE_EQ(distance2(x, y), 5.0);
  EXPECT_DOUBLE_EQ(sum(x), 7.0);
}

TEST(VectorOps, ElementwiseOps) {
  Vector a{1.0, 2.0}, b{3.0, 5.0}, out(2);
  subtract(b, a, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  add(a, b, out);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
  hadamard(a, b, out);
  EXPECT_DOUBLE_EQ(out[1], 10.0);
}

TEST(VectorOps, CopyIsExact) {
  Vector a{1.5, -2.5, 3.5}, b(3);
  copy(a, b);
  EXPECT_EQ(a, b);
}

TEST(MatrixOps, GemvMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Vector x{1.0, 0.0, -1.0}, y(2);
  gemv(ConstMatrixView(a.storage(), 2, 3), x, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(MatrixOps, GemvTransposedMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Vector x{1.0, 2.0}, y(3);
  gemv_transposed(ConstMatrixView(a.storage(), 2, 3), x, y);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(MatrixOps, GerPerformsRankOneUpdate) {
  Matrix a(2, 2, 1.0);
  Vector x{1.0, 2.0}, y{3.0, 4.0};
  ger(0.5, x, y, MatrixView(a.storage(), 2, 2));
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0 + 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0 + 0.5 * 8.0);
}

// Property test: gemm against a naive triple loop on random shapes.
class GemmRandomTest : public ::testing::TestWithParam<
                           std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(GemmRandomTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng = make_stream(42, StreamKind::kTest, m * 100 + k * 10 + n);
  Matrix a(m, k), b(k, n), c(m, n);
  for (double& v : a.storage()) v = rng.normal();
  for (double& v : b.storage()) v = rng.normal();
  gemm(ConstMatrixView(a.storage(), m, k), ConstMatrixView(b.storage(), k, n),
       MatrixView(c.storage(), m, n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double expect = 0.0;
      for (std::size_t p = 0; p < k; ++p) expect += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), expect, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmRandomTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 20, 5), std::make_tuple(13, 1, 9)));

TEST(MatrixOps, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(gemm(ConstMatrixView(a.storage(), 2, 3),
                    ConstMatrixView(b.storage(), 2, 2),
                    MatrixView(c.storage(), 2, 2)),
               std::invalid_argument);
}

// Golden bit patterns for the matrix kernels over every row count 1..9
// (full and partial row blocks) and odd column counts, hashed bit for
// bit across all shapes. About one entry in eight of A is an exact zero.
// The expected values were produced by the one-row-at-a-time kernels
// and are never edited: a blocked kernel must reproduce them exactly.
Matrix golden_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix a(rows, cols);
  for (double& v : a.storage()) {
    v = rng.uniform_int(std::uint64_t{8}) == 0 ? 0.0 : rng.normal();
  }
  return a;
}

constexpr std::size_t kGoldenCols[] = {1, 3, 7, 13};

TEST(MatrixOpsGolden, GemvBits) {
  Rng rng = make_stream(51, StreamKind::kTest);
  std::uint64_t h = testing::bit_hash({});
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t n : kGoldenCols) {
      const Matrix a = golden_matrix(m, n, rng);
      const Matrix x = golden_matrix(1, n, rng);
      Vector y(m, -1.0);
      gemv(ConstMatrixView(a.storage(), m, n), x.storage(), y);
      h = testing::bit_hash(y, h);
      gemv_accumulate(ConstMatrixView(a.storage(), m, n), x.storage(), y);
      h = testing::bit_hash(y, h);
    }
  }
  EXPECT_EQ(h, 0x94d06bfaadda0358ull) << std::hex << h;
}

TEST(MatrixOpsGolden, GemvTransposedBits) {
  Rng rng = make_stream(52, StreamKind::kTest);
  std::uint64_t h = testing::bit_hash({});
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t n : kGoldenCols) {
      const Matrix a = golden_matrix(m, n, rng);
      const Matrix x = golden_matrix(1, m, rng);
      Vector y(n, -1.0);
      gemv_transposed(ConstMatrixView(a.storage(), m, n), x.storage(), y);
      h = testing::bit_hash(y, h);
      gemv_transposed_accumulate(ConstMatrixView(a.storage(), m, n),
                                 x.storage(), y);
      h = testing::bit_hash(y, h);
    }
  }
  EXPECT_EQ(h, 0xabef6310320ad585ull) << std::hex << h;
}

TEST(MatrixOpsGolden, GemmBits) {
  Rng rng = make_stream(53, StreamKind::kTest);
  std::uint64_t h = testing::bit_hash({});
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t k : kGoldenCols) {
      for (std::size_t n : kGoldenCols) {
        const Matrix a = golden_matrix(m, k, rng);
        const Matrix b = golden_matrix(k, n, rng);
        Matrix c(m, n, -1.0);
        gemm(ConstMatrixView(a.storage(), m, k),
             ConstMatrixView(b.storage(), k, n), MatrixView(c.storage(), m, n));
        h = testing::bit_hash(c.storage(), h);
      }
    }
  }
  EXPECT_EQ(h, 0x4ecefb126556b3eull) << std::hex << h;
}

// The transposed forms are pinned to the kernels they replace: each
// column of gemm_transposed is bit for bit gemv_transposed of that
// column, and gemm_transposed_accumulate is bit for bit the sequence of
// ger updates over the rows of A and B.
TEST(MatrixOpsGolden, GemmTransposedMatchesGemvTransposedBits) {
  Rng rng = make_stream(54, StreamKind::kTest);
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t k : kGoldenCols) {
      for (std::size_t n : kGoldenCols) {
        const Matrix a = golden_matrix(k, m, rng);
        const Matrix b = golden_matrix(k, n, rng);
        Matrix c(m, n, -1.0);
        gemm_transposed(ConstMatrixView(a.storage(), k, m),
                        ConstMatrixView(b.storage(), k, n),
                        MatrixView(c.storage(), m, n));
        for (std::size_t j = 0; j < n; ++j) {
          Vector column(k), expect(m);
          for (std::size_t p = 0; p < k; ++p) column[p] = b(p, j);
          gemv_transposed(ConstMatrixView(a.storage(), k, m), column, expect);
          for (std::size_t i = 0; i < m; ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(c(i, j)),
                      std::bit_cast<std::uint64_t>(expect[i]))
                << m << "x" << k << "x" << n << " at " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(MatrixOpsGolden, GemmTransposedAccumulateMatchesGerBits) {
  Rng rng = make_stream(55, StreamKind::kTest);
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t k : kGoldenCols) {
      for (std::size_t n : kGoldenCols) {
        const Matrix a = golden_matrix(k, m, rng);
        const Matrix b = golden_matrix(k, n, rng);
        const Matrix start = golden_matrix(m, n, rng);
        Matrix c = start, expect = start;
        gemm_transposed_accumulate(ConstMatrixView(a.storage(), k, m),
                                   ConstMatrixView(b.storage(), k, n),
                                   MatrixView(c.storage(), m, n));
        for (std::size_t p = 0; p < k; ++p) {
          ger(1.0, a.row(p), b.row(p), MatrixView(expect.storage(), m, n));
        }
        EXPECT_EQ(testing::bit_hash(c.storage()),
                  testing::bit_hash(expect.storage()))
            << m << "x" << k << "x" << n;
      }
    }
  }
}

// No term is skipped for a zero factor: 0 * inf is NaN, as in dot.
TEST(MatrixOps, GemmPropagatesZeroTimesInfinity) {
  Matrix a(1, 2), b(2, 1);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  b(0, 0) = std::numeric_limits<double>::infinity();
  b(1, 0) = 2.0;
  Matrix c(1, 1);
  gemm(ConstMatrixView(a.storage(), 1, 2), ConstMatrixView(b.storage(), 2, 1),
       MatrixView(c.storage(), 1, 1));
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

TEST(Nonlinearities, SigmoidBoundsAndSymmetry) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(5.0) + sigmoid(-5.0), 1.0, 1e-12);
  EXPECT_GT(sigmoid(1000.0), 0.999);   // no overflow
  EXPECT_LT(sigmoid(-1000.0), 0.001);  // no underflow to nan
}

TEST(Nonlinearities, SoftmaxIsDistribution) {
  Vector logits{1.0, 2.0, 3.0};
  softmax_inplace(logits);
  EXPECT_NEAR(sum(logits), 1.0, 1e-12);
  EXPECT_LT(logits[0], logits[1]);
  EXPECT_LT(logits[1], logits[2]);
}

TEST(Nonlinearities, SoftmaxStableAtExtremeLogits) {
  Vector logits{1000.0, 1000.0, -1000.0};
  softmax_inplace(logits);
  EXPECT_TRUE(all_finite(logits));
  EXPECT_NEAR(logits[0], 0.5, 1e-9);
  EXPECT_NEAR(logits[2], 0.0, 1e-9);
}

TEST(Nonlinearities, LogSumExpStable) {
  Vector logits{1000.0, 999.0};
  const double lse = log_sum_exp(logits);
  EXPECT_TRUE(std::isfinite(lse));
  EXPECT_NEAR(lse, 1000.0 + std::log1p(std::exp(-1.0)), 1e-9);
}

TEST(Nonlinearities, ArgmaxBreaksTiesLow) {
  Vector x{1.0, 3.0, 3.0, 2.0};
  EXPECT_EQ(argmax(x), 1u);
}

TEST(Misc, AllFiniteDetectsNanAndInf) {
  Vector ok{1.0, 2.0};
  EXPECT_TRUE(all_finite(ok));
  Vector bad{1.0, std::nan("")};
  EXPECT_FALSE(all_finite(bad));
  Vector inf{1.0, INFINITY};
  EXPECT_FALSE(all_finite(inf));
}

TEST(Misc, WeightedSumCombinesRows) {
  Vector a{1.0, 0.0}, b{0.0, 1.0};
  std::vector<const Vector*> rows{&a, &b};
  Vector weights{0.25, 0.75}, dst(2);
  weighted_sum(rows, weights, dst);
  EXPECT_DOUBLE_EQ(dst[0], 0.25);
  EXPECT_DOUBLE_EQ(dst[1], 0.75);
}

TEST(MatrixType, ConstructorValidatesBuffer) {
  EXPECT_THROW(Matrix(2, 3, Vector(5)), std::invalid_argument);
  Matrix m(2, 3, Vector(6, 1.0));
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.0);
}

TEST(MatrixType, RowSpansAlias) {
  Matrix m(2, 2, 0.0);
  m.row(1)[0] = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 5.0);
}

}  // namespace
}  // namespace fed
