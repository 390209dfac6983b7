#ifndef BHPO_COMMON_MATRIX_H_
#define BHPO_COMMON_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace bhpo {

// Dense row-major matrix of doubles: the numeric workhorse for the MLP
// substrate and the clustering substrate. Storage is one contiguous buffer.
//
// The three products MLP training runs on (MatMul, TransposeMatMul,
// MatMulTranspose) dispatch through the library's SIMD gate
// (common/simd.h) to a register-blocked AVX2 kernel (4 rows x 8 columns of
// accumulators, common/matmul_avx2.cc) or to plain scalar loops, which stay
// as the portable path and as the reference. Both paths are bit-identical
// (up to which NaN a NaN output carries): every output element sums its
// products in ascending k from +0.0, with a separately rounded multiply and
// add, so the kernel only changes how many independent elements are in
// flight (DESIGN.md §13). The kernel adds every term, so MatMul and
// TransposeMatMul, which skip zero left-hand entries, take it only when the
// right-hand operand is all finite and the skip changes nothing; otherwise
// they run the scalar loop. The *Into variants write into a caller-owned
// matrix and reuse its allocation, which is how MLP training runs its
// per-step products without allocating.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);
  // Entries drawn iid from N(0, stddev^2).
  static Matrix RandomGaussian(size_t rows, size_t cols, Rng* rng,
                               double stddev = 1.0);
  // Entries drawn iid from U(-limit, limit) (Glorot-style init).
  static Matrix RandomUniform(size_t rows, size_t cols, Rng* rng,
                              double limit);
  // Builds a matrix from nested initializer data; all rows must have equal
  // length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    BHPO_CHECK_LT(r, rows_);
    BHPO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    BHPO_CHECK_LT(r, rows_);
    BHPO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  // Raw row access for hot loops (bounds-checked once).
  double* Row(size_t r) {
    BHPO_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    BHPO_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  // Reshapes to rows x cols. Never shrinks the allocation, so a buffer that
  // was once sized for its largest shape reshapes without allocating.
  // Entry values are unspecified afterwards.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  // Selects a subset of rows (gather).
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  Matrix Transpose() const;

  // this (rows x cols) * other (cols x k) -> (rows x k). A zero entry of
  // `this` contributes nothing, not even 0 * Inf.
  Matrix MatMul(const Matrix& other) const;
  // this^T * other, without materializing the transpose. A zero entry of
  // `this` contributes nothing, not even 0 * Inf.
  Matrix TransposeMatMul(const Matrix& other) const;
  // this * other^T. Every product counts (0 * Inf is NaN).
  Matrix MatMulTranspose(const Matrix& other) const;

  // The same products into *out, resized to the result shape. `out` must
  // not alias an operand. MatMulTransposeInto may write other^T into
  // *scratch (the AVX2 path runs the MatMul kernel on it); its contents are
  // unspecified afterwards.
  void MatMulInto(const Matrix& other, Matrix* out) const;
  void TransposeMatMulInto(const Matrix& other, Matrix* out) const;
  void MatMulTransposeInto(const Matrix& other, Matrix* scratch,
                           Matrix* out) const;

  // Elementwise in-place ops; shapes must match.
  void Add(const Matrix& other);
  void Scale(double factor);
  // this += factor * other (axpy).
  void AddScaled(const Matrix& other, double factor);
  // Adds a row vector (1 x cols) to every row (bias broadcast).
  void AddRowBroadcast(const Matrix& row);

  // Column-wise sum into *out, resized to (1 x cols). Used for bias
  // gradients.
  void ColSumsInto(Matrix* out) const;

  double SumSquares() const;
  double Dot(const Matrix& other) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

namespace internal {

// AVX2 product kernel (common/matmul_avx2.cc, only built under the CMake
// gate). For i < m and j < n writes
//
//   c[i * n + j] = (((+0.0 + A(i,0) B(0,j)) + A(i,1) B(1,j)) + ...)
//
// summed in ascending p < k, where A(i, p) = a[i * a_row_stride +
// p * a_k_stride] and B(p, j) = b[p * n + j] (row-major k x n). Every term
// counts; nothing is skipped.
void MatMulAvx2(const double* a, size_t a_row_stride, size_t a_k_stride,
                const double* b, size_t m, size_t k, size_t n, double* c);

// True when every one of the `count` doubles at x is finite (AVX2 scan,
// built and callable under the same gate as MatMulAvx2).
bool AllFiniteAvx2(const double* x, size_t count);

}  // namespace internal

}  // namespace bhpo

#endif  // BHPO_COMMON_MATRIX_H_
