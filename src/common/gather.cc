#include "common/gather.h"

#include <cstdlib>
#include <cstring>

#include "common/simd.h"

namespace bhpo {
namespace internal {

void GatherRowsScalar(const double* src, size_t src_stride, size_t cols,
                      const size_t* indices, size_t count, double* dst) {
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(dst + i * cols, src + indices[i] * src_stride,
                cols * sizeof(double));
  }
}

#if !defined(BHPO_HAVE_AVX2)
void CopyRowAvx2(const double*, double*, size_t) {
  // Never reached: GatherRows only dispatches here when the AVX2 TU is
  // compiled in, in which case gather_avx2.cc provides the real definition.
  std::abort();
}
#endif

}  // namespace internal

void GatherRows(const double* src, size_t src_stride, size_t cols,
                const size_t* indices, size_t count, double* dst) {
  if (count == 0 || cols == 0) return;
  // Runs of adjacent source rows only coalesce into one copy when the
  // source is packed (stride == cols), which holds for every Matrix today;
  // a padded source falls back to row-at-a-time copies.
  const bool coalesce = src_stride == cols;
  const bool avx2 = SimdActive();
  // Scattered rows are latency-bound, not bandwidth-bound: each row start
  // is a demand miss the hardware prefetcher cannot predict, because the
  // next source address lives in the index array. The driver knows it, so
  // it prefetches the row kPrefetchAhead iterations early — far enough to
  // cover a DRAM round trip at a few dozen ns per row of copying.
  constexpr size_t kPrefetchAhead = 8;
  const size_t row_bytes = cols * sizeof(double);
  auto prefetch_row = [&](size_t at) {
    const char* row =
        reinterpret_cast<const char*>(src + indices[at] * src_stride);
    for (size_t b = 0; b < row_bytes; b += 64) __builtin_prefetch(row + b);
  };
  for (size_t at = 0; at < count && at < kPrefetchAhead; ++at) {
    prefetch_row(at);
  }
  size_t i = 0;
  while (i < count) {
    size_t run = 1;
    if (coalesce) {
      while (i + run < count && indices[i + run] == indices[i + run - 1] + 1) {
        ++run;
      }
    }
    const double* s = src + indices[i] * src_stride;
    double* d = dst + i * cols;
    if (run > 1) {
      // Long coalesced copies stream well on their own; memcpy's own
      // internal prefetching takes over.
      std::memcpy(d, s, run * cols * sizeof(double));
    } else {
      if (i + kPrefetchAhead < count) prefetch_row(i + kPrefetchAhead);
      // The inline AVX2 copy beats glibc memcpy at narrow rows, where
      // memcpy's size dispatch is a real fraction of the work; at wider
      // rows glibc's tuned bulk path wins, so hand off to it.
      if (avx2 && cols < 32) {
        internal::CopyRowAvx2(s, d, cols);
      } else {
        std::memcpy(d, s, cols * sizeof(double));
      }
    }
    i += run;
  }
}

}  // namespace bhpo
