#include "common/simd.h"

#include <atomic>

#include "common/env.h"

namespace bhpo {
namespace {

bool SimdSupported() {
#if defined(BHPO_HAVE_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Env-var kill switch: BHPO_SIMD=0|off|false|no disables the AVX2 paths
// even in SIMD builds. This is how ctest registers a portable variant of
// the kernel suites against the same binary. The flag is a function-local
// static so the env read happens thread-safely at first use instead of in
// a namespace-scope initializer during static init (std::getenv there
// runs at an unspecified point before main).
std::atomic<bool>& SimdEnabledFlag() {
  static std::atomic<bool> flag{SimdSupported() &&
                                GetEnvBool("BHPO_SIMD", true)};
  return flag;
}

}  // namespace

bool SimdCompiled() {
#if defined(BHPO_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool SimdActive() {
  return SimdEnabledFlag().load(std::memory_order_relaxed);
}

bool SetSimdEnabled(bool enabled) {
  bool requested = enabled && SimdSupported();
  return SimdEnabledFlag().exchange(requested, std::memory_order_relaxed);
}

}  // namespace bhpo
