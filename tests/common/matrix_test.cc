#include "common/matrix.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tests/common/scoped_simd.h"

namespace bhpo {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.size(), 0u);
}

TEST(MatrixTest, Identity) {
  Matrix i = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixDeathTest, FromRowsRejectsRagged) {
  EXPECT_DEATH(Matrix::FromRows({{1, 2}, {3}}), "ragged");
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatMulIdentityIsNoop) {
  Rng rng(3);
  Matrix a = Matrix::RandomGaussian(4, 4, &rng);
  Matrix c = a.MatMul(Matrix::Identity(4));
  for (size_t r = 0; r < 4; ++r) {
    for (size_t col = 0; col < 4; ++col) {
      EXPECT_DOUBLE_EQ(c(r, col), a(r, col));
    }
  }
}

TEST(MatrixTest, TransposeMatMulMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::RandomGaussian(5, 3, &rng);
  Matrix b = Matrix::RandomGaussian(5, 4, &rng);
  Matrix direct = a.TransposeMatMul(b);
  Matrix expected = a.Transpose().MatMul(b);
  ASSERT_TRUE(direct.SameShape(expected));
  // Both sides sum a[k][i] * b[k][j] in ascending k from +0.0: exact.
  for (size_t r = 0; r < direct.rows(); ++r) {
    for (size_t c = 0; c < direct.cols(); ++c) {
      EXPECT_EQ(direct(r, c), expected(r, c));
    }
  }
}

TEST(MatrixTest, MatMulTransposeMatchesExplicitTranspose) {
  Rng rng(7);
  Matrix a = Matrix::RandomGaussian(4, 6, &rng);
  Matrix b = Matrix::RandomGaussian(3, 6, &rng);
  Matrix direct = a.MatMulTranspose(b);
  Matrix expected = a.MatMul(b.Transpose());
  ASSERT_TRUE(direct.SameShape(expected));
  for (size_t r = 0; r < direct.rows(); ++r) {
    for (size_t c = 0; c < direct.cols(); ++c) {
      EXPECT_NEAR(direct(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(MatrixDeathTest, MatMulShapeMismatchAborts) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_DEATH(a.MatMul(b), "BHPO_CHECK");
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(1, 1), 44.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 22.0);
}

TEST(MatrixTest, AddScaled) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 2.0);
  a.AddScaled(b, -0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix a(3, 2, 1.0);
  Matrix row = Matrix::FromRows({{10, 20}});
  a.AddRowBroadcast(row);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(a(r, 0), 11.0);
    EXPECT_DOUBLE_EQ(a(r, 1), 21.0);
  }
}

TEST(MatrixTest, ColSums) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix sums(4, 4, 7.0);  // Reshaped and overwritten, not added to.
  a.ColSumsInto(&sums);
  EXPECT_EQ(sums.rows(), 1u);
  EXPECT_EQ(sums.cols(), 2u);
  EXPECT_DOUBLE_EQ(sums(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(sums(0, 1), 12.0);
}

TEST(MatrixTest, SelectRows) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix s = a.SelectRows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
}

TEST(MatrixTest, SumSquaresAndDot) {
  Matrix a = Matrix::FromRows({{1, -2}, {3, -4}});
  EXPECT_DOUBLE_EQ(a.SumSquares(), 30.0);
  Matrix b = Matrix::FromRows({{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(a.Dot(b), -2.0);
}

TEST(MatrixTest, RandomUniformRespectsLimit) {
  Rng rng(11);
  Matrix m = Matrix::RandomUniform(10, 10, &rng, 0.25);
  for (double x : m.data()) EXPECT_LE(std::fabs(x), 0.25);
  EXPECT_GT(m.SumSquares(), 0.0);
}

// ---------------------------------------------------------------------------
// Product kernels: the AVX2 path against the scalar reference
// ---------------------------------------------------------------------------

enum class Fill {
  // Gaussian values with exact zeros of both signs and subnormals mixed in.
  kFinite,
  // kFinite plus ±Inf and NaN. The NaN is the one x86 arithmetic itself
  // produces (0 * Inf, Inf - Inf: sign bit set), so every NaN anywhere in
  // the sums has the same bits and the outputs must be byte-identical.
  kSpecial,
  // kSpecial plus NaNs of the other sign. When two different NaNs meet in
  // one operation, x86 keeps the first operand's, and the compiler orders
  // commutative operands as it likes (the scalar loops pick differently in
  // optimized and sanitizer builds), so here the outputs must agree on
  // every non-NaN bit and on where the NaNs are, not on NaN bits.
  kMixedNan,
};

Matrix KernelOperand(size_t rows, size_t cols, Fill fill, Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kSpecials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -3 * std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
      kInf,
      -kInf,
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  const int num_specials =
      fill == Fill::kFinite ? 5 : (fill == Fill::kSpecial ? 8 : 9);
  Matrix m(rows, cols);
  for (double& x : m.data()) {
    double u = rng->Uniform();
    if (u < 0.3) {
      x = kSpecials[rng->UniformInt(0, num_specials - 1)];
    } else {
      x = rng->Gaussian(0.0, 1.0);
    }
  }
  return m;
}

const char* FillName(Fill fill) {
  switch (fill) {
    case Fill::kFinite:
      return "finite";
    case Fill::kSpecial:
      return "special";
    case Fill::kMixedNan:
      return "mixed-nan";
  }
  return "?";
}

// Runs `product` once with the AVX2 path (when compiled in and supported;
// otherwise both runs are scalar) and once with the scalar reference, and
// requires identical bits in every entry (for kMixedNan: in every entry
// that is not NaN on both sides).
template <typename Product>
void ExpectVariantsIdentical(const Product& product, const char* what,
                             size_t m, size_t k, size_t n, Fill fill) {
  Matrix fast, reference;
  {
    ScopedSimd simd(true);
    fast = product();
  }
  {
    ScopedSimd scalar(false);
    reference = product();
  }
  ASSERT_TRUE(fast.SameShape(reference));
  for (size_t at = 0; at < fast.size(); ++at) {
    double x = fast.data()[at];
    double y = reference.data()[at];
    if (std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y)) continue;
    if (fill == Fill::kMixedNan && std::isnan(x) && std::isnan(y)) continue;
    FAIL() << what << " m=" << m << " k=" << k << " n=" << n << " "
           << FillName(fill) << ": entry " << at << " is " << std::hex
           << std::bit_cast<uint64_t>(x) << " (simd) vs "
           << std::bit_cast<uint64_t>(y) << " (scalar)";
  }
}

// MatMul and TransposeMatMul run the kernel only when B is all finite, so
// their special values go into A (where the kernel sees them) against a
// finite B; a B drawn with the same fill checks the scalar fallback too.
// MatMulTranspose always runs the kernel and takes specials in both.
void CheckAllProducts(size_t m, size_t k, size_t n, Fill fill, Rng* rng) {
  Matrix a = KernelOperand(m, k, fill, rng);             // m x k
  Matrix at = KernelOperand(k, m, fill, rng);            // k x m, for A^T B
  Matrix b = KernelOperand(k, n, Fill::kFinite, rng);    // k x n
  Matrix b_fill = KernelOperand(k, n, fill, rng);        // k x n
  Matrix bt = KernelOperand(n, k, fill, rng);            // n x k, for A B^T
  for (const Matrix* rhs : {&b, &b_fill}) {
    ExpectVariantsIdentical([&] { return a.MatMul(*rhs); }, "MatMul", m, k,
                            n, fill);
    ExpectVariantsIdentical([&] { return at.TransposeMatMul(*rhs); },
                            "TransposeMatMul", m, k, n, fill);
  }
  ExpectVariantsIdentical([&] { return a.MatMulTranspose(bt); },
                          "MatMulTranspose", m, k, n, fill);
}

TEST(MatrixKernelTest, VariantsAreByteIdenticalOnAllSmallShapes) {
  Rng rng(31);
  for (size_t m = 0; m < 20; ++m) {
    for (size_t k = 0; k < 20; ++k) {
      for (size_t n = 0; n < 20; ++n) {
        for (Fill fill : {Fill::kFinite, Fill::kSpecial, Fill::kMixedNan}) {
          CheckAllProducts(m, k, n, fill, &rng);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// Shapes past every tile and a few MLP-sized ones.
TEST(MatrixKernelTest, VariantsAreByteIdenticalOnLargeShapes) {
  Rng rng(37);
  const size_t kShapes[][3] = {{64, 64, 64},  {67, 65, 71}, {200, 36, 50},
                               {50, 200, 6},  {240, 40, 1}, {1, 64, 99},
                               {130, 3, 129}, {65, 1, 64}};
  for (const auto& shape : kShapes) {
    for (Fill fill : {Fill::kFinite, Fill::kSpecial, Fill::kMixedNan}) {
      CheckAllProducts(shape[0], shape[1], shape[2], fill, &rng);
      if (HasFatalFailure()) return;
    }
  }
}

// A zero left-hand entry contributes nothing, even against Inf or NaN: the
// reference skips the term, and with SIMD on such a product must not reach
// the kernel, which would compute 0 * Inf = NaN.
TEST(MatrixKernelTest, ZeroLeftEntrySkipsNonFiniteRightEntry) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Matrix a = Matrix::FromRows({{0.0, 2.0}, {-0.0, 1.0}});
  Matrix b = Matrix::FromRows({{kInf, std::numeric_limits<double>::quiet_NaN()},
                               {1.0, -1.0}});
  for (bool simd : {false, true}) {
    ScopedSimd scoped(simd);
    Matrix c = a.MatMul(b);
    EXPECT_EQ(c(0, 0), 2.0);
    EXPECT_EQ(c(0, 1), -2.0);
    EXPECT_EQ(c(1, 0), 1.0);
    EXPECT_EQ(c(1, 1), -1.0);
    Matrix ct = a.TransposeMatMul(b);
    EXPECT_EQ(ct(0, 0), 0.0);
    EXPECT_FALSE(std::signbit(ct(0, 0)));
    // MatMulTranspose has no skip: 0 * NaN counts.
    Matrix cm = a.MatMulTranspose(b);
    EXPECT_TRUE(std::isnan(cm(0, 0)));
  }
}

// Into variants reuse the output's allocation and give the same bytes as
// the value-returning products.
TEST(MatrixKernelTest, IntoVariantsReuseBuffersAndMatch) {
  Rng rng(41);
  Matrix big = KernelOperand(30, 20, Fill::kFinite, &rng);
  Matrix w = KernelOperand(20, 9, Fill::kFinite, &rng);
  Matrix out, scratch;
  big.MatMulInto(w, &out);
  const double* storage = out.data().data();
  Matrix small = big.SelectRows({3, 1, 4});
  small.MatMulInto(w, &out);
  EXPECT_EQ(out.data().data(), storage);
  Matrix expected = small.MatMul(w);
  ASSERT_TRUE(out.SameShape(expected));
  EXPECT_EQ(0, std::memcmp(out.data().data(), expected.data().data(),
                           out.size() * sizeof(double)));

  Matrix delta = KernelOperand(3, 9, Fill::kFinite, &rng);
  small.TransposeMatMulInto(delta, &out);
  expected = small.TransposeMatMul(delta);
  ASSERT_TRUE(out.SameShape(expected));
  EXPECT_EQ(0, std::memcmp(out.data().data(), expected.data().data(),
                           out.size() * sizeof(double)));
  delta.MatMulTransposeInto(w, &scratch, &out);
  expected = delta.MatMulTranspose(w);
  ASSERT_TRUE(out.SameShape(expected));
  EXPECT_EQ(0, std::memcmp(out.data().data(), expected.data().data(),
                           out.size() * sizeof(double)));
}

}  // namespace
}  // namespace bhpo
