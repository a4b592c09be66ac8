#ifndef FTMS_PARITY_XOR_KERNELS_H_
#define FTMS_PARITY_XOR_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/status.h"

namespace ftms {

// Vectorized multi-source XOR kernels with runtime dispatch.
//
// Every degraded read, rebuild pass, scrub and parity verify bottoms out
// in "dst ^= s0 ^ s1 ^ ... ^ s(n-1)". Doing that pairwise makes n full
// passes over dst; a multi-source kernel makes ONE pass, keeping the
// destination in registers while it streams the sources. The dispatcher
// picks the widest kernel the binary was compiled with AND the CPU can
// run, from CPU features alone; FTMS_XOR_KERNEL=<name> pins the choice
// instead (and FTMS_XOR_KERNEL=scalar is how CI proves all kernels agree
// byte for byte).
//
// Determinism: XOR is exact, so every kernel produces byte-identical
// output — selection affects speed only, never results.

// Kernels fold at most this many sources per call; XorIntoN() batches
// larger groups.
inline constexpr int kMaxXorSources = 8;

struct XorKernel {
  // Stable lowercase identifier: "scalar", "sse2", "avx2", "avx512",
  // "neon". Used by FTMS_XOR_KERNEL and in metric labels.
  const char* name;
  // True when the running CPU can execute this kernel. (Kernels the
  // COMPILER could not build are absent from CompiledXorKernels()
  // entirely.)
  bool (*supported)();
  // dst[i] ^= srcs[0][i] ^ ... ^ srcs[nsrc-1][i] for i in [0, bytes).
  // Requires 1 <= nsrc <= kMaxXorSources. No alignment requirements on
  // dst or any source; sources may not overlap dst.
  void (*xor_n)(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
                size_t bytes);
};

// Every kernel compiled into this binary, narrowest (scalar) first.
// Entries are stable for the process lifetime.
std::span<const XorKernel> CompiledXorKernels();

// The dispatched kernel: the FTMS_XOR_KERNEL pin if set and valid,
// otherwise the last supported entry of CompiledXorKernels(). Selection
// runs once on first use, is thread-safe, and publishes
// ftms_parity_kernel_active{kernel="..."} (1 for the dispatched kernel,
// 0 for the others) to the global registry when it is enabled.
const XorKernel& ActiveXorKernel();
const char* ActiveXorKernelName();

// dst ^= XOR of all sources, one fused pass per kMaxXorSources batch
// through the active kernel. Any nsrc >= 0 (0 is a no-op).
void XorIntoN(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes);

// Looks up a compiled kernel by name; InvalidArgument on unknown names
// (the message lists the valid ones).
StatusOr<const XorKernel*> FindXorKernel(std::string_view name);

// Parses an FTMS_XOR_KERNEL-style value. "" and "auto" mean
// auto-select and return nullptr; otherwise the named kernel, which
// must be compiled in (InvalidArgument) and runnable on this CPU
// (FailedPrecondition).
StatusOr<const XorKernel*> ParseXorKernelSpec(std::string_view spec);

// Test hook: overrides the active kernel (nullptr returns to the
// dispatcher's choice). Not for production use — the
// ftms_parity_kernel_active gauges keep describing the dispatcher's pick.
void PinXorKernel(const XorKernel* kernel);

}  // namespace ftms

#endif  // FTMS_PARITY_XOR_KERNELS_H_
