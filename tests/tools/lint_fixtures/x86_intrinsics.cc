// Lint fixture: x86 intrinsics headers outside src/common/*_avx2.cc.
#include <immintrin.h>  // line 2: x86-intrinsics
#include <emmintrin.h>  // line 3: x86-intrinsics
#  include <x86intrin.h>  // line 4: x86-intrinsics
#include <cmath>
// A comment that names <immintrin.h> is documentation, not an include.

// bhpo-lint: allow(x86-intrinsics)
#include <xmmintrin.h>

inline double Half(double x) { return std::ldexp(x, -1); }
