#ifndef FTMS_VERIFY_SYNTH_KERNELS_INTERNAL_H_
#define FTMS_VERIFY_SYNTH_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <span>

// Block synthesis kernels behind SynthesizeDataBlockInto. A block is the
// little-endian byte stream of words Mix(counter), Mix(counter + 1), ...
// (the last word truncated to the block's length), where Mix is the
// SplitMix64 finalizer below. Each kernel lives in its own translation
// unit so CMake can attach the matching target-feature flag; a factory
// returns nullptr when its TU was compiled without the ISA (missing
// compiler support, non-x86 host, or -DFTMS_SIMD=OFF).
//
// Every kernel produces byte-identical output; the dispatcher picks the
// widest one the CPU supports (avx512 -> avx2 -> scalar), once, from CPU
// features alone.

namespace ftms::internal {

inline constexpr uint64_t kMixGamma = 0x9e3779b97f4a7c15ull;
inline constexpr uint64_t kMixMul1 = 0xbf58476d1ce4e5b9ull;
inline constexpr uint64_t kMixMul2 = 0x94d049bb133111ebull;

// SplitMix64 output function applied to one counter value.
inline uint64_t Mix(uint64_t x) {
  x += kMixGamma;
  x = (x ^ (x >> 30)) * kMixMul1;
  x = (x ^ (x >> 27)) * kMixMul2;
  return x ^ (x >> 31);
}

struct SynthKernel {
  // Stable lowercase identifier: "scalar", "avx2", "avx512".
  const char* name;
  // True when the running CPU can execute this kernel.
  bool (*supported)();
  // Writes `bytes` bytes of the stream starting at word Mix(counter)
  // into dst. No alignment requirement on dst.
  void (*fill)(uint8_t* dst, uint64_t counter, size_t bytes);
};

const SynthKernel* GetSynthKernelScalar();  // never null
const SynthKernel* GetSynthKernelAvx2();
const SynthKernel* GetSynthKernelAvx512();

// The scalar fill, exposed so SIMD kernels can hand it their tails: a
// vector prefix of `off` bytes (a multiple of 8) continues with counter
// `counter + off / 8`.
void SynthFillScalar(uint8_t* dst, uint64_t counter, size_t bytes);

// Every kernel compiled into this binary, scalar first.
std::span<const SynthKernel> CompiledSynthKernels();

// The widest compiled kernel the CPU supports. Chosen on first use.
const SynthKernel& ActiveSynthKernel();

}  // namespace ftms::internal

#endif  // FTMS_VERIFY_SYNTH_KERNELS_INTERNAL_H_
