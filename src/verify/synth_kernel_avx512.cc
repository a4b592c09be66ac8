#include "verify/synth_kernels_internal.h"

#if defined(FTMS_SYNTH_BUILD_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

namespace ftms::internal {
namespace {

bool Avx512Supported() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

// x ^ (x >> n) per 64-bit lane. The all-lanes zero-masked shift is a
// plain vpsrlq; GCC 12's unmasked _mm512_srli_epi64 trips a false
// -Wmaybe-uninitialized on its undefined pass-through operand.
inline __m512i XorShift(__m512i x, unsigned n) {
  return _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, n));
}

// Mix() on eight counters at once; `x` already carries the gamma step.
inline __m512i Finalize(__m512i x, __m512i mul1, __m512i mul2) {
  x = _mm512_mullo_epi64(XorShift(x, 30), mul1);
  x = _mm512_mullo_epi64(XorShift(x, 27), mul2);
  return XorShift(x, 31);
}

void FillAvx512(uint8_t* dst, uint64_t counter, size_t bytes) {
  const __m512i mul1 = _mm512_set1_epi64(static_cast<long long>(kMixMul1));
  const __m512i mul2 = _mm512_set1_epi64(static_cast<long long>(kMixMul2));
  const __m512i step = _mm512_set1_epi64(8);
  // Lane k of `x` holds counter + k + gamma: the pre-finalizer state of
  // the word stored at byte offset 8k.
  __m512i x = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(counter + kMixGamma)),
      _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
  // Iterations share only the counter step, so out-of-order execution
  // already overlaps their vpmullq chains; unrolling measured no faster.
  size_t off = 0;
  for (; off + 64 <= bytes; off += 64) {
    _mm512_storeu_si512(dst + off, Finalize(x, mul1, mul2));
    x = _mm512_add_epi64(x, step);
  }
  if (off < bytes) SynthFillScalar(dst + off, counter + off / 8, bytes - off);
}

}  // namespace

const SynthKernel* GetSynthKernelAvx512() {
  static constexpr SynthKernel kKernel = {"avx512", Avx512Supported,
                                          FillAvx512};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without AVX-512 F+DQ support

namespace ftms::internal {
const SynthKernel* GetSynthKernelAvx512() { return nullptr; }
}  // namespace ftms::internal

#endif
