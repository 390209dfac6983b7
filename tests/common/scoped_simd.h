#ifndef BHPO_TESTS_COMMON_SCOPED_SIMD_H_
#define BHPO_TESTS_COMMON_SCOPED_SIMD_H_

#include "common/simd.h"

namespace bhpo {

// Forces the SIMD dispatch setting for one scope and restores the previous
// one on exit, so tests that compare the AVX2 and scalar paths never leak
// state into each other. Enabling is a no-op where AVX2 is not compiled in
// or not supported; the comparison then runs scalar against scalar.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : previous_(SetSimdEnabled(enabled)) {}
  ~ScopedSimd() { SetSimdEnabled(previous_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool previous_;
};

}  // namespace bhpo

#endif  // BHPO_TESTS_COMMON_SCOPED_SIMD_H_
