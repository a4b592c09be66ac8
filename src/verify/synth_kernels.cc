#include <cstring>
#include <vector>

#include "verify/synth_kernels_internal.h"

namespace ftms::internal {
namespace {

bool AlwaysSupported() { return true; }

}  // namespace

void SynthFillScalar(uint8_t* dst, uint64_t counter, size_t bytes) {
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const uint64_t word = Mix(counter++);
    std::memcpy(dst + i, &word, 8);
  }
  if (i < bytes) {
    const uint64_t word = Mix(counter);
    std::memcpy(dst + i, &word, bytes - i);
  }
}

const SynthKernel* GetSynthKernelScalar() {
  static constexpr SynthKernel kKernel = {"scalar", AlwaysSupported,
                                          SynthFillScalar};
  return &kKernel;
}

std::span<const SynthKernel> CompiledSynthKernels() {
  static const std::vector<SynthKernel> kernels = [] {
    std::vector<SynthKernel> v;
    v.push_back(*GetSynthKernelScalar());
    for (const SynthKernel* (*factory)() :
         {GetSynthKernelAvx2, GetSynthKernelAvx512}) {
      if (const SynthKernel* kernel = factory()) v.push_back(*kernel);
    }
    return v;
  }();
  return kernels;
}

const SynthKernel& ActiveSynthKernel() {
  // Compiled kernels are listed narrowest first, and each is faster than
  // the ones before it, so the last supported entry wins.
  static const SynthKernel* const active = [] {
    const std::span<const SynthKernel> kernels = CompiledSynthKernels();
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it) {
      if (it->supported()) return &*it;
    }
    return GetSynthKernelScalar();
  }();
  return *active;
}

}  // namespace ftms::internal
