#ifndef BHPO_COMMON_GATHER_H_
#define BHPO_COMMON_GATHER_H_

#include <cstddef>

namespace bhpo {

// Indexed row gather: the one memory-movement primitive behind every
// explicit materialization in the library (DatasetView::GatherFeatures,
// Matrix::SelectRows, the MLP mini-batch gather, the MLP's subset-view
// prediction through FeatureRows::Dense). Copies `count` rows of `cols` doubles each out of a row-major
// source whose rows are `src_stride` doubles apart:
//
//   dst[i * cols + j] = src[indices[i] * src_stride + j]
//
// into a packed row-major destination. Two optimizations over the naive
// per-row loop, both bit-exact (the kernel only moves bytes, it never
// computes):
//
//  1. Contiguous-run coalescing. Rung subsets and fold complements are
//     sorted index lists, so long stretches satisfy
//     indices[i+1] == indices[i] + 1; when src_stride == cols those source
//     rows are adjacent in memory and a whole run collapses into one large
//     memcpy instead of one call per row.
//  2. An AVX2 single-row copy for the rows between runs, behind the
//     library's SIMD gate (common/simd.h): compiled only when the CMake
//     option BHPO_ENABLE_SIMD is on and dispatched at runtime on CPU
//     support and the BHPO_SIMD kill switch (so a portable build and a SIMD
//     build of the same sources always exist side by side).
//
// `indices` may repeat (bootstrap resampling) and must all be < the number
// of source rows; src and dst must not overlap.
void GatherRows(const double* src, size_t src_stride, size_t cols,
                const size_t* indices, size_t count, double* dst);

namespace internal {

// Reference implementation: the pre-kernel per-row copy loop. Exposed so
// bit-exactness tests and benches can compare against the exact historical
// baseline.
void GatherRowsScalar(const double* src, size_t src_stride, size_t cols,
                      const size_t* indices, size_t count, double* dst);

// Single-row AVX2 copy (gather_avx2.cc, only built under the CMake gate).
void CopyRowAvx2(const double* src, double* dst, size_t cols);

}  // namespace internal

}  // namespace bhpo

#endif  // BHPO_COMMON_GATHER_H_
