#ifndef BHPO_COMMON_SIMD_H_
#define BHPO_COMMON_SIMD_H_

namespace bhpo {

// Feature gate for the library's AVX2 kernels: the indexed row gather
// (GatherRows, common/gather.h) and the three matrix products behind MLP
// training (Matrix::MatMul, TransposeMatMul and MatMulTranspose,
// common/matrix.h). Every kernel keeps its scalar loop as the portable path
// and as the reference, and both paths produce bit-identical output, so the
// gate only ever changes speed.
//
// Three layers, strongest first:
//   * compile time: CMake option BHPO_ENABLE_SIMD (default ON on x86-64)
//     compiles the AVX2 translation units at all;
//   * process start: the BHPO_SIMD environment variable ("0"/"off" disables)
//     and a runtime CPUID check seed the initial setting;
//   * runtime: SetSimdEnabled() flips the dispatch on the fly, which is how
//     tests and benches compare both variants inside one binary.

// True when this binary was compiled with the AVX2 kernels at all.
bool SimdCompiled();
// True when the kernels will actually take their AVX2 paths right now
// (compiled in, supported by the CPU, and not disabled).
bool SimdActive();
// Runtime override. Enabling is a no-op when the kernels are not compiled in
// or the CPU lacks AVX2. Returns the previous setting so scoped flips can
// restore it.
bool SetSimdEnabled(bool enabled);

}  // namespace bhpo

#endif  // BHPO_COMMON_SIMD_H_
