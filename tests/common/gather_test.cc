#include "common/gather.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "tests/common/scoped_simd.h"

namespace bhpo {
namespace {

// Element-by-element reference gather: deliberately the dumbest possible
// loop, independent of both the scalar memcpy baseline and the kernel.
std::vector<double> NaiveGather(const std::vector<double>& src,
                                size_t src_stride, size_t cols,
                                const std::vector<size_t>& indices) {
  std::vector<double> out(indices.size() * cols);
  for (size_t i = 0; i < indices.size(); ++i) {
    for (size_t j = 0; j < cols; ++j) {
      out[i * cols + j] = src[indices[i] * src_stride + j];
    }
  }
  return out;
}

// Distinctive fill: every cell value encodes (row, col) so any misplaced
// copy shows up as a wrong value, not a coincidental match.
std::vector<double> CellCoded(size_t rows, size_t stride) {
  std::vector<double> data(rows * stride);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < stride; ++c) {
      data[r * stride + c] = static_cast<double>(r) * 1000.0 +
                             static_cast<double>(c) + 0.25;
    }
  }
  return data;
}

void ExpectGatherMatchesNaive(size_t rows, size_t cols,
                              const std::vector<size_t>& indices,
                              bool simd) {
  ScopedSimd scoped(simd);
  std::vector<double> src = CellCoded(rows, cols);
  std::vector<double> expected = NaiveGather(src, cols, cols, indices);
  // Canary-pad the destination: one poisoned double on each side proves the
  // kernel writes exactly count*cols doubles and nothing more.
  std::vector<double> dst(indices.size() * cols + 2, -7777.0);
  GatherRows(src.data(), cols, cols, indices.data(), indices.size(),
             dst.data() + 1);
  EXPECT_DOUBLE_EQ(dst.front(), -7777.0);
  EXPECT_DOUBLE_EQ(dst.back(), -7777.0);
  ASSERT_EQ(expected.size() + 2, dst.size());
  // An empty vector's data() may be null, which memcmp must never see.
  if (expected.empty()) return;
  EXPECT_EQ(0, std::memcmp(expected.data(), dst.data() + 1,
                           expected.size() * sizeof(double)))
      << "rows=" << rows << " cols=" << cols << " simd=" << simd;
}

// The widths the issue calls out: empty, sub-register, exactly one lane,
// lane+tail, two lanes, and sizes straddling the 8-wide unrolled loop.
constexpr size_t kEdgeWidths[] = {0, 1, 3, 4, 7, 8, 31, 33};

TEST(GatherTest, EdgeWidthsAllPatternsBothVariants) {
  for (size_t cols : kEdgeWidths) {
    for (bool simd : {false, true}) {
      // Identity, reversed, duplicated, strided, empty.
      ExpectGatherMatchesNaive(10, cols, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, simd);
      ExpectGatherMatchesNaive(10, cols, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, simd);
      ExpectGatherMatchesNaive(10, cols, {4, 4, 4, 0, 9, 0}, simd);
      ExpectGatherMatchesNaive(10, cols, {1, 3, 5, 7, 9}, simd);
      ExpectGatherMatchesNaive(10, cols, {}, simd);
      ExpectGatherMatchesNaive(1, cols, {0}, simd);
    }
  }
}

TEST(GatherTest, CoalescedRunsInsideMixedPatterns) {
  // Runs of adjacent rows flanked by jumps: exercises the memcpy-batched
  // run path, run boundaries, and single-row fallbacks in one call.
  std::vector<size_t> indices = {5, 6, 7, 8, 2, 40, 41, 42, 43, 44, 45, 0};
  for (size_t cols : kEdgeWidths) {
    for (bool simd : {false, true}) {
      ExpectGatherMatchesNaive(64, cols, indices, simd);
    }
  }
}

TEST(GatherTest, RandomizedIndexSetsMatchNaive) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    size_t rows = 1 + rng.UniformIndex(40);
    size_t cols = kEdgeWidths[rng.UniformIndex(8)];
    size_t count = rng.UniformIndex(3 * rows);
    std::vector<size_t> indices(count);
    for (size_t& idx : indices) idx = rng.UniformIndex(rows);
    ExpectGatherMatchesNaive(rows, cols, indices, trial % 2 == 0);
  }
}

// Misaligned-by-construction: source rows start at an odd double offset
// (8-byte, not 16/32-byte, alignment), as happens for any view whose first
// column offset or row index is odd. Under ASan this also proves the AVX2
// loads never touch out-of-bounds memory around unaligned tails.
TEST(GatherTest, MisalignedSourceAndDestinationOffsets) {
  for (size_t cols : kEdgeWidths) {
    if (cols == 0) continue;
    std::vector<double> raw = CellCoded(20, cols + 1);
    std::vector<size_t> indices = {3, 4, 5, 1, 17, 9, 10};
    // Treat raw+1 as the base: every row pointer is shifted one double, so
    // 32-byte alignment is impossible whenever cols is even.
    const double* src = raw.data() + 1;
    std::vector<double> expected(indices.size() * cols);
    for (size_t i = 0; i < indices.size(); ++i) {
      for (size_t j = 0; j < cols; ++j) {
        expected[i * cols + j] = src[indices[i] * (cols + 1) + j];
      }
    }
    for (bool simd : {false, true}) {
      ScopedSimd scoped(simd);
      std::vector<double> dst(indices.size() * cols + 3, 0.0);
      GatherRows(src, cols + 1, cols, indices.data(), indices.size(),
                 dst.data() + 3);  // Odd destination offset too.
      EXPECT_EQ(0, std::memcmp(expected.data(), dst.data() + 3,
                               expected.size() * sizeof(double)))
          << "cols=" << cols << " simd=" << simd;
    }
  }
}

TEST(GatherTest, StridedSourceDisablesCoalescingButStaysCorrect) {
  // src_stride != cols: adjacent indices must NOT collapse into one memcpy
  // (rows are not adjacent in memory). Gather only the first `cols` of each
  // padded row.
  size_t stride = 7, cols = 5, rows = 12;
  std::vector<double> src = CellCoded(rows, stride);
  std::vector<size_t> indices = {2, 3, 4, 5, 9};
  std::vector<double> expected = NaiveGather(src, stride, cols, indices);
  for (bool simd : {false, true}) {
    ScopedSimd scoped(simd);
    std::vector<double> dst(indices.size() * cols, 0.0);
    GatherRows(src.data(), stride, cols, indices.data(), indices.size(),
               dst.data());
    EXPECT_EQ(0, std::memcmp(expected.data(), dst.data(),
                             expected.size() * sizeof(double)));
  }
}

TEST(GatherTest, ScalarReferenceIsItselfExact) {
  std::vector<double> src = CellCoded(8, 3);
  std::vector<size_t> indices = {7, 0, 3, 3};
  std::vector<double> expected = NaiveGather(src, 3, 3, indices);
  std::vector<double> dst(indices.size() * 3, 0.0);
  internal::GatherRowsScalar(src.data(), 3, 3, indices.data(), indices.size(),
                             dst.data());
  EXPECT_EQ(0, std::memcmp(expected.data(), dst.data(),
                           expected.size() * sizeof(double)));
}

TEST(GatherTest, RuntimeToggleReportsAndRestores) {
  bool was = SimdActive();
  bool prev = SetSimdEnabled(false);
  EXPECT_EQ(prev, was);
  EXPECT_FALSE(SimdActive());
  SetSimdEnabled(true);
  // Enabling only sticks when the path is compiled in and the CPU has it.
  EXPECT_EQ(SimdActive(),
            SimdCompiled() && SetSimdEnabled(true));
  SetSimdEnabled(was);
  EXPECT_EQ(SimdActive(), was);
}

// SelectRows now runs on the gather kernel: identical output either way.
TEST(MatrixSelectRowsGatherTest, VariantsAreByteIdentical) {
  Rng rng(11);
  Matrix m(40, 9);
  for (double& x : m.data()) x = rng.Gaussian(0.0, 1.0);
  std::vector<size_t> indices = {0, 1, 2, 3, 10, 39, 5, 5, 20, 21, 22};
  ScopedSimd on(true);
  Matrix with_simd = m.SelectRows(indices);
  ScopedSimd off(false);
  Matrix without = m.SelectRows(indices);
  ASSERT_EQ(with_simd.rows(), without.rows());
  EXPECT_EQ(0, std::memcmp(with_simd.data().data(), without.data().data(),
                           without.size() * sizeof(double)));
}

}  // namespace
}  // namespace bhpo
