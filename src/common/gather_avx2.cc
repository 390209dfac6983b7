// AVX2 translation unit of the gather kernel. Compiled with -mavx2 behind
// the BHPO_ENABLE_SIMD CMake gate; everything else in the library builds
// without arch flags, and gather.cc only calls in here when SimdActive()
// (common/simd.h: a runtime __builtin_cpu_supports("avx2") check plus the
// BHPO_SIMD kill switch) allows it, so the binary stays safe on pre-AVX2
// hardware.

#include <immintrin.h>

#include <cstddef>

namespace bhpo {
namespace internal {

void CopyRowAvx2(const double* src, double* dst, size_t cols) {
  if (cols < 4) {
    for (size_t j = 0; j < cols; ++j) dst[j] = src[j];
    return;
  }
  // Bulk 16-double (four-vector) blocks keep four independent load/store
  // chains in flight; the ragged end is finished with one vector that
  // re-copies up to three doubles of overlap instead of a scalar tail —
  // the same trick glibc's memmove uses, and measurably faster than a
  // per-element loop at the feature widths trees and MLPs see.
  size_t j = 0;
  while (j + 16 <= cols) {
    __m256d a = _mm256_loadu_pd(src + j);
    __m256d b = _mm256_loadu_pd(src + j + 4);
    __m256d c = _mm256_loadu_pd(src + j + 8);
    __m256d d = _mm256_loadu_pd(src + j + 12);
    _mm256_storeu_pd(dst + j, a);
    _mm256_storeu_pd(dst + j + 4, b);
    _mm256_storeu_pd(dst + j + 8, c);
    _mm256_storeu_pd(dst + j + 12, d);
    j += 16;
  }
  while (j + 4 <= cols) {
    _mm256_storeu_pd(dst + j, _mm256_loadu_pd(src + j));
    j += 4;
  }
  if (j < cols) {
    _mm256_storeu_pd(dst + cols - 4, _mm256_loadu_pd(src + cols - 4));
  }
}

}  // namespace internal
}  // namespace bhpo
