// AVX2 translation unit of the matrix-product kernel. Compiled with -mavx2
// behind the BHPO_ENABLE_SIMD CMake gate; everything else in the library
// builds without arch flags, and matrix.cc only calls in here when
// SimdActive() (common/simd.h) says the CPU has AVX2 and the path is not
// disabled.
//
// Bit-exactness contract (DESIGN.md §13): every output element is summed
// exactly like the scalar reference loops in matrix.cc — products added in
// ascending k into an accumulator that starts at +0.0, a multiply and then a
// separately rounded add. The register tile only holds independent output
// elements side by side; it never splits or reorders one element's sum. So
// every output matches the scalar path bit for bit, and is NaN exactly
// where the scalar path's is. The kernel adds every term; matrix.cc only
// runs it for the zero-skipping products when B is all finite, where the
// skip changes nothing. Which NaN comes out when two NaNs meet in one
// add or multiply is not part of the contract: x86 returns the first
// operand's, and the compiler orders commutative operands as it likes —
// the scalar loops themselves come out differently in an optimized and a
// sanitizer build.

#ifdef __FMA__
// A fused multiply-add rounds once where the reference rounds twice, so an
// FMA-enabled build (-mfma, -march=native, -march=haswell, ...) of this TU
// could contract _mm256_mul_pd + _mm256_add_pd and silently break the
// bit-exactness contract.
#error "matmul_avx2.cc must be compiled without FMA: build it with -mavx2 only"
#endif

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <limits>

#include "common/matrix.h"

namespace bhpo {
namespace internal {
namespace {

// Loads the first W (1..4) doubles of p into the low lanes of a vector.
// The unused lanes read as +0.0 and never touch memory past p[W - 1].
template <int W>
inline __m256d LoadFirst(const double* p) {
  if constexpr (W == 4) {
    return _mm256_loadu_pd(p);
  } else if constexpr (W == 3) {
    return _mm256_setr_pd(p[0], p[1], p[2], 0.0);
  } else if constexpr (W == 2) {
    return _mm256_setr_pd(p[0], p[1], 0.0, 0.0);
  } else {
    return _mm256_setr_pd(p[0], 0.0, 0.0, 0.0);
  }
}

template <int W>
inline void StoreFirst(double* p, __m256d v) {
  if constexpr (W == 4) {
    _mm256_storeu_pd(p, v);
  } else {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    for (int w = 0; w < W; ++w) p[w] = lanes[w];
  }
}

// One row of a register tile for one k: the row's A entry times the tile's
// B vectors, added into the row's accumulators c0 (and c1 when V == 2).
template <int V>
inline void RowStep(const double* a, __m256d b0, __m256d b1, __m256d& c0,
                    __m256d& c1) {
  const __m256d av = _mm256_broadcast_sd(a);
  c0 = _mm256_add_pd(c0, _mm256_mul_pd(b0, av));
  if constexpr (V == 2) c1 = _mm256_add_pd(c1, _mm256_mul_pd(b1, av));
}

template <int V, int W>
inline void StoreRow(double* c, __m256d c0, __m256d c1) {
  if constexpr (V == 2) {
    _mm256_storeu_pd(c, c0);
    StoreFirst<W>(c + 4, c1);
  } else {
    StoreFirst<W>(c, c0);
  }
}

// One register tile: R output rows x V (1..2) vectors of columns, the last
// vector holding W (1..4) live columns. Each accumulator keeps four
// independent output elements; for each k it gains one product, exactly as
// the scalar loop's o[j] += a[i][k] * b[k][j] would give it. The eight
// accumulators are named variables, not an array, so they stay in
// registers: 4 rows x 2 vectors (R <= 4), or up to 8 rows x 1 vector for
// narrow column tails, where rows 4..7 take the second-vector registers.
// Eight independent add chains keep both FP ports busy either way.
template <int R, int V, int W>
inline void Tile(const double* a, size_t a_row_stride, size_t a_k_stride,
                 const double* b, size_t ldb, size_t k, double* c,
                 size_t ldc) {
  static_assert(R >= 1 && R <= (V == 2 ? 4 : 8));
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  const size_t rs = a_row_stride;
  for (size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb;
    const __m256d b0 = V == 2 ? _mm256_loadu_pd(bp) : LoadFirst<W>(bp);
    __m256d b1 = _mm256_setzero_pd();
    if constexpr (V == 2) b1 = LoadFirst<W>(bp + 4);
    const double* ap = a + p * a_k_stride;
    RowStep<V>(ap, b0, b1, c00, c01);
    if constexpr (R > 1) RowStep<V>(ap + rs, b0, b1, c10, c11);
    if constexpr (R > 2) RowStep<V>(ap + 2 * rs, b0, b1, c20, c21);
    if constexpr (R > 3) RowStep<V>(ap + 3 * rs, b0, b1, c30, c31);
    if constexpr (R > 4) RowStep<1>(ap + 4 * rs, b0, b1, c01, c01);
    if constexpr (R > 5) RowStep<1>(ap + 5 * rs, b0, b1, c11, c11);
    if constexpr (R > 6) RowStep<1>(ap + 6 * rs, b0, b1, c21, c21);
    if constexpr (R > 7) RowStep<1>(ap + 7 * rs, b0, b1, c31, c31);
  }
  StoreRow<V, W>(c, c00, c01);
  if constexpr (R > 1) StoreRow<V, W>(c + ldc, c10, c11);
  if constexpr (R > 2) StoreRow<V, W>(c + 2 * ldc, c20, c21);
  if constexpr (R > 3) StoreRow<V, W>(c + 3 * ldc, c30, c31);
  if constexpr (R > 4) StoreRow<1, W>(c + 4 * ldc, c01, c01);
  if constexpr (R > 5) StoreRow<1, W>(c + 5 * ldc, c11, c11);
  if constexpr (R > 6) StoreRow<1, W>(c + 6 * ldc, c21, c21);
  if constexpr (R > 7) StoreRow<1, W>(c + 7 * ldc, c31, c31);
}

// Output rows [i, i + R) x columns [j, j + 4 (V - 1) + W).
template <int R, int V, int W>
void TileAt(const double* a, size_t a_row_stride, size_t a_k_stride,
            const double* b, size_t k, size_t n, size_t i, size_t j,
            double* c) {
  Tile<R, V, W>(a + i * a_row_stride, a_row_stride, a_k_stride, b + j, n, k,
                c + i * n + j, n);
}

// Rows [i, i + R): 8-wide tiles, then the last n mod 8 columns when
// there are 5..7 of them (one tile with a partial second vector).
template <int R>
void RowPanel(const double* a, size_t a_row_stride, size_t a_k_stride,
              const double* b, size_t k, size_t n, size_t i, double* c) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    TileAt<R, 2, 4>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
  }
  switch (n - j) {
    case 7:
      TileAt<R, 2, 3>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 6:
      TileAt<R, 2, 2>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 5:
      TileAt<R, 2, 1>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    default:
      break;
  }
}

// Rows [i, i + R) of the last W (1..4) columns, starting at column j.
template <int R>
void NarrowTile(const double* a, size_t a_row_stride, size_t a_k_stride,
                const double* b, size_t k, size_t n, size_t i, size_t j,
                double* c) {
  switch (n - j) {
    case 4:
      TileAt<R, 1, 4>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 3:
      TileAt<R, 1, 3>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 2:
      TileAt<R, 1, 2>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 1:
      TileAt<R, 1, 1>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    default:
      break;
  }
}

}  // namespace

bool AllFiniteAvx2(const double* x, size_t count) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d max_finite =
      _mm256_set1_pd(std::numeric_limits<double>::max());
  size_t i = 0;
  __m256d bad = _mm256_setzero_pd();
  for (; i + 4 <= count; i += 4) {
    __m256d v = _mm256_and_pd(_mm256_loadu_pd(x + i), abs_mask);
    // NaN compares unordered, so NLE_UQ flags it together with ±Inf.
    bad = _mm256_or_pd(bad, _mm256_cmp_pd(v, max_finite, _CMP_NLE_UQ));
  }
  if (_mm256_movemask_pd(bad) != 0) return false;
  for (; i < count; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

void MatMulAvx2(const double* a, size_t a_row_stride, size_t a_k_stride,
                const double* b, size_t m, size_t k, size_t n, double* c) {
  // Panels of 4 rows (then one of 1..3) over the 8-wide columns and a
  // 5..7-column tail.
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    RowPanel<4>(a, a_row_stride, a_k_stride, b, k, n, i, c);
  }
  switch (m - i) {
    case 3:
      RowPanel<3>(a, a_row_stride, a_k_stride, b, k, n, i, c);
      break;
    case 2:
      RowPanel<2>(a, a_row_stride, a_k_stride, b, k, n, i, c);
      break;
    case 1:
      RowPanel<1>(a, a_row_stride, a_k_stride, b, k, n, i, c);
      break;
    default:
      break;
  }
  // A 1..4-column tail fills one vector per row, so it runs 8 rows at a
  // time (then 4, then 1..3) to keep eight accumulators in flight. This
  // is the whole product when n <= 4: a regression head, or the gradient
  // into it.
  const size_t tail = n % 8;
  if (tail == 0 || tail > 4) return;
  const size_t j = n - tail;
  i = 0;
  for (; i + 8 <= m; i += 8) {
    NarrowTile<8>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
  }
  if (i + 4 <= m) {
    NarrowTile<4>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
    i += 4;
  }
  switch (m - i) {
    case 3:
      NarrowTile<3>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 2:
      NarrowTile<2>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    case 1:
      NarrowTile<1>(a, a_row_stride, a_k_stride, b, k, n, i, j, c);
      break;
    default:
      break;
  }
}

}  // namespace internal
}  // namespace bhpo
