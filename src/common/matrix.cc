#include "common/matrix.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/gather.h"
#include "common/simd.h"

namespace bhpo {

namespace internal {

#if !defined(BHPO_HAVE_AVX2)
// Never reached: the products only dispatch here when the AVX2 TU is
// compiled in, in which case matmul_avx2.cc provides the real definitions.
void MatMulAvx2(const double*, size_t, size_t, const double*, size_t, size_t,
                size_t, double*) {
  std::abort();
}
bool AllFiniteAvx2(const double*, size_t) { std::abort(); }
#endif

}  // namespace internal

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, Rng* rng,
                              double stddev) {
  BHPO_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, Rng* rng,
                             double limit) {
  BHPO_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Uniform(-limit, limit);
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    BHPO_CHECK_EQ(rows[r].size(), m.cols_) << "ragged row " << r;
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  for (size_t idx : indices) BHPO_CHECK_LT(idx, rows_);
  Matrix out(indices.size(), cols_);
  GatherRows(data_.data(), cols_, cols_, indices.data(), indices.size(),
             out.data_.data());
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = Row(r);
    for (size_t c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

namespace {

// The scalar product loops: the portable path and the bit-exactness
// reference for the AVX2 kernel. Each expects `out` zero-filled.

void MatMulScalar(const Matrix& a, const Matrix& b, Matrix* out) {
  // ikj loop order: streams through `b` and `out` rows contiguously.
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.Row(i);
    double* o = out->Row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.Row(k);
      for (size_t j = 0; j < b.cols(); ++j) o[j] += aik * bk[j];
    }
  }
}

void TransposeMatMulScalar(const Matrix& a, const Matrix& b, Matrix* out) {
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.Row(r);
    const double* br = b.Row(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      double ai = ar[i];
      if (ai == 0.0) continue;
      double* o = out->Row(i);
      for (size_t j = 0; j < b.cols(); ++j) o[j] += ai * br[j];
    }
  }
}

void MatMulTransposeScalar(const Matrix& a, const Matrix& b, Matrix* out) {
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.Row(i);
    double* o = out->Row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* bj = b.Row(j);
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += ai[k] * bj[k];
      o[j] = acc;
    }
  }
}

void ZeroFill(Matrix* out, size_t rows, size_t cols) {
  out->Resize(rows, cols);
  std::fill(out->data().begin(), out->data().end(), 0.0);
}

// Whether a zero-skipping product (MatMul, TransposeMatMul) with right-hand
// operand b may run the AVX2 kernel, which adds every term. With every b
// entry finite, a zero left-hand entry gives a ±0.0 product, and adding
// ±0.0 to an accumulator that starts at +0.0 leaves it bit-for-bit
// unchanged (under round-to-nearest a sum is -0.0 only when both addends
// are, so the accumulator is never -0.0): the kernel's sum equals the
// skipping loop's. An Inf or NaN in b would turn 0 * Inf into a NaN the
// skip avoids, so such products stay on the scalar loop. The scan is
// O(k n) against the product's O(m k n).
bool SkipProductTakesKernel(const Matrix& b) {
  return SimdActive() && internal::AllFiniteAvx2(b.data().data(), b.size());
}

}  // namespace

void Matrix::MatMulInto(const Matrix& other, Matrix* out) const {
  BHPO_CHECK_EQ(cols_, other.rows_)
      << ShapeString() << " x " << other.ShapeString();
  BHPO_CHECK(out != this && out != &other);
  if (SkipProductTakesKernel(other)) {
    out->Resize(rows_, other.cols_);
    internal::MatMulAvx2(data_.data(), cols_, 1, other.data_.data(), rows_,
                         cols_, other.cols_, out->data_.data());
    return;
  }
  ZeroFill(out, rows_, other.cols_);
  MatMulScalar(*this, other, out);
}

void Matrix::TransposeMatMulInto(const Matrix& other, Matrix* out) const {
  BHPO_CHECK_EQ(rows_, other.rows_)
      << ShapeString() << "^T x " << other.ShapeString();
  BHPO_CHECK(out != this && out != &other);
  if (SkipProductTakesKernel(other)) {
    out->Resize(cols_, other.cols_);
    internal::MatMulAvx2(data_.data(), 1, cols_, other.data_.data(), cols_,
                         rows_, other.cols_, out->data_.data());
    return;
  }
  ZeroFill(out, cols_, other.cols_);
  TransposeMatMulScalar(*this, other, out);
}

void Matrix::MatMulTransposeInto(const Matrix& other, Matrix* scratch,
                                 Matrix* out) const {
  BHPO_CHECK_EQ(cols_, other.cols_)
      << ShapeString() << " x " << other.ShapeString() << "^T";
  BHPO_CHECK(scratch != nullptr);
  BHPO_CHECK(out != this && out != &other && out != scratch);
  if (SimdActive()) {
    // The kernel wants B row-major (k x n): transpose `other` once, an
    // O(k n) copy against the product's O(m k n).
    scratch->Resize(other.cols_, other.rows_);
    for (size_t j = 0; j < other.rows_; ++j) {
      const double* src = other.Row(j);
      for (size_t k = 0; k < other.cols_; ++k) {
        scratch->data_[k * other.rows_ + j] = src[k];
      }
    }
    out->Resize(rows_, other.rows_);
    internal::MatMulAvx2(data_.data(), cols_, 1, scratch->data_.data(), rows_,
                         cols_, other.rows_, out->data_.data());
    return;
  }
  out->Resize(rows_, other.rows_);
  MatMulTransposeScalar(*this, other, out);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(other, &out);
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  Matrix out;
  TransposeMatMulInto(other, &out);
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  Matrix scratch;
  Matrix out;
  MatMulTransposeInto(other, &scratch, &out);
  return out;
}

void Matrix::Add(const Matrix& other) {
  BHPO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Scale(double factor) {
  for (double& x : data_) x *= factor;
}

void Matrix::AddScaled(const Matrix& other, double factor) {
  BHPO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
}

void Matrix::AddRowBroadcast(const Matrix& row) {
  BHPO_CHECK_EQ(row.rows(), 1u);
  BHPO_CHECK_EQ(row.cols(), cols_);
  const double* b = row.Row(0);
  for (size_t r = 0; r < rows_; ++r) {
    double* p = Row(r);
    for (size_t c = 0; c < cols_; ++c) p[c] += b[c];
  }
}

void Matrix::ColSumsInto(Matrix* out) const {
  BHPO_CHECK(out != this);
  ZeroFill(out, 1, cols_);
  double* o = out->Row(0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* p = Row(r);
    for (size_t c = 0; c < cols_; ++c) o[c] += p[c];
  }
}

double Matrix::SumSquares() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

double Matrix::Dot(const Matrix& other) const {
  BHPO_CHECK(SameShape(other));
  double acc = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) acc += data_[i] * other.data_[i];
  return acc;
}

std::string Matrix::ShapeString() const {
  std::ostringstream os;
  os << "(" << rows_ << " x " << cols_ << ")";
  return os.str();
}

}  // namespace bhpo
