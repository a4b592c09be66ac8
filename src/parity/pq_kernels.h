#ifndef FTMS_PARITY_PQ_KERNELS_H_
#define FTMS_PARITY_PQ_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/status.h"

namespace ftms {

// Vectorized GF(2^8) P+Q syndrome kernels with runtime dispatch.
//
// The dual-parity (RAID-6) schemes need, per group write and per
// two-erasure reconstruct,
//   P ^= D0 ^ D1 ^ ... ^ D(k-1)
//   Q ^= c0*D0 ^ c1*D1 ^ ... ^ c(k-1)*D(k-1)     (c_i in GF(2^8))
// A PqKernel computes BOTH syndromes in ONE fused pass over the
// sources, so each data byte is loaded exactly once and P/Q stay in
// registers. Byte-at-a-time log/exp lookups run at a few hundred MB/s;
// the SIMD kernels (pshufb nibble tables, GFNI affine) run at memory
// bandwidth.
//
// Dispatch mirrors parity/xor_kernels.h: the dispatcher picks the
// widest kernel the binary was compiled with AND the CPU can run, from
// CPU features alone; FTMS_PQ_KERNEL=<name> pins the choice instead
// (FTMS_PQ_KERNEL=scalar is how CI proves all kernels agree byte for
// byte).
//
// Determinism: GF(2^8) arithmetic is exact, so every kernel produces
// byte-identical output — selection affects speed only, never results.

// Kernels fold at most this many sources per call; PqGenerateN()
// batches larger groups.
inline constexpr int kMaxPqSources = 8;

struct PqKernel {
  // Stable lowercase identifier: "scalar", "ssse3", "avx2", "avx512",
  // "gfni", "neon". Used by FTMS_PQ_KERNEL and in metric labels.
  const char* name;
  // True when the running CPU can execute this kernel. (Kernels the
  // COMPILER could not build are absent from CompiledPqKernels()
  // entirely.)
  bool (*supported)();
  // p[i] ^= srcs[0][i] ^ ... ^ srcs[nsrc-1][i]
  // q[i] ^= coeffs[0]*srcs[0][i] ^ ... ^ coeffs[nsrc-1]*srcs[nsrc-1][i]
  // for i in [0, bytes), products in GF(2^8). XOR-accumulating, so
  // callers seed p/q (zero for a fresh syndrome) and batch freely.
  // Requires 1 <= nsrc <= kMaxPqSources. No alignment requirements;
  // sources may not overlap p or q, and p may not overlap q.
  void (*pq)(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
             const uint8_t* coeffs, int nsrc, size_t bytes);
  // dst[i] ^= c * src[i] in GF(2^8) — the scaling primitive of
  // two-erasure reconstruction. src may not overlap dst.
  void (*mul_xor)(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes);
};

// Every kernel compiled into this binary, narrowest (scalar) first.
// Entries are stable for the process lifetime.
std::span<const PqKernel> CompiledPqKernels();

// The dispatched kernel: the FTMS_PQ_KERNEL pin if set and valid,
// otherwise the last supported entry of CompiledPqKernels(). Selection
// runs once on first use, is thread-safe, and publishes
// ftms_parity_pq_kernel_active{kernel="..."} (1 for the dispatched
// kernel, 0 for the others) to the global registry when it is enabled.
const PqKernel& ActivePqKernel();
const char* ActivePqKernelName();

// Accumulates the P and Q syndromes of `nsrc` sources into p/q through
// the active kernel, batching kMaxPqSources at a time. Source s takes
// the standard RAID-6 coefficient g^(first_index + s), so a group's
// syndrome can be built across multiple calls by advancing first_index.
// p and q must be seeded (zero for a fresh syndrome); nsrc may be 0.
void PqGenerateN(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                 int nsrc, size_t bytes, int first_index = 0);

// Like PqGenerateN but with an explicit coefficient per source —
// two-erasure reconstruction folds SURVIVING data, whose indices skip
// the erased columns, so the g^i run is not contiguous there.
void PqAccumulate(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                  const uint8_t* coeffs, int nsrc, size_t bytes);

// dst ^= c * src through the active kernel.
void GfMulXorInto(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes);

// Looks up a compiled kernel by name; InvalidArgument on unknown names
// (the message lists the valid ones).
StatusOr<const PqKernel*> FindPqKernel(std::string_view name);

// Parses an FTMS_PQ_KERNEL-style value. "" and "auto" mean auto-select
// and return nullptr; otherwise the named kernel, which must be
// compiled in (InvalidArgument) and runnable on this CPU
// (FailedPrecondition).
StatusOr<const PqKernel*> ParsePqKernelSpec(std::string_view spec);

// Test hook: overrides the active kernel (nullptr returns to the
// dispatcher's choice). Not for production use — the
// ftms_parity_pq_kernel_active gauges keep describing the dispatcher's
// pick.
void PinPqKernel(const PqKernel* kernel);

}  // namespace ftms

#endif  // FTMS_PARITY_PQ_KERNELS_H_
