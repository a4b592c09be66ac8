#include "verify/synth_kernels_internal.h"

#if defined(FTMS_SYNTH_BUILD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace ftms::internal {
namespace {

bool Avx2Supported() { return __builtin_cpu_supports("avx2"); }

// Low 64 bits of x * m per lane, for m = (m_hi << 32) | m_lo with both
// halves splatted: AVX2 has no 64-bit multiply, so it is built from
// three 32x32->64 products, x_lo*m_lo + ((x_hi*m_lo + x_lo*m_hi) << 32).
inline __m256i MulLo64(__m256i x, __m256i m_lo, __m256i m_hi) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), m_lo),
                       _mm256_mul_epu32(x, m_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(x, m_lo),
                          _mm256_slli_epi64(cross, 32));
}

struct Multipliers {
  __m256i lo1, hi1, lo2, hi2;
};

// Mix() on four counters at once; `x` already carries the gamma step.
inline __m256i Finalize(__m256i x, const Multipliers& m) {
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), m.lo1, m.hi1);
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), m.lo2, m.hi2);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

void FillAvx2(uint8_t* dst, uint64_t counter, size_t bytes) {
  const Multipliers m = {
      _mm256_set1_epi64x(static_cast<long long>(kMixMul1 & 0xffffffffu)),
      _mm256_set1_epi64x(static_cast<long long>(kMixMul1 >> 32)),
      _mm256_set1_epi64x(static_cast<long long>(kMixMul2 & 0xffffffffu)),
      _mm256_set1_epi64x(static_cast<long long>(kMixMul2 >> 32))};
  const __m256i step = _mm256_set1_epi64x(8);
  // Lanes of x0 / x1 hold counter + k + gamma for words k = 0..3 / 4..7
  // of the current 64-byte chunk.
  __m256i x0 = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(counter + kMixGamma)),
      _mm256_set_epi64x(3, 2, 1, 0));
  __m256i x1 = _mm256_add_epi64(x0, _mm256_set1_epi64x(4));
  size_t off = 0;
  for (; off + 64 <= bytes; off += 64) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + off),
                        Finalize(x0, m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + off + 32),
                        Finalize(x1, m));
    x0 = _mm256_add_epi64(x0, step);
    x1 = _mm256_add_epi64(x1, step);
  }
  if (off < bytes) SynthFillScalar(dst + off, counter + off / 8, bytes - off);
}

}  // namespace

const SynthKernel* GetSynthKernelAvx2() {
  static constexpr SynthKernel kKernel = {"avx2", Avx2Supported, FillAvx2};
  return &kKernel;
}

}  // namespace ftms::internal

#else  // compiled without AVX2 support

namespace ftms::internal {
const SynthKernel* GetSynthKernelAvx2() { return nullptr; }
}  // namespace ftms::internal

#endif
