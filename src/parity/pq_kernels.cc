#include "parity/pq_kernels.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "parity/gf256.h"
#include "parity/pq_kernels_internal.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace ftms {
namespace {

// The FTMS_PQ_KERNEL pin when it names a runnable kernel, otherwise the
// widest supported one: compiled kernels are listed narrowest first and
// none is slower than the ones before it (bench_parity_kernels), so the
// last supported entry wins (scalar, first, always is).
const PqKernel& SelectedKernel() {
  static const PqKernel* const selected = [] {
    const PqKernel* kernel = nullptr;
    if (const char* env = std::getenv("FTMS_PQ_KERNEL")) {
      StatusOr<const PqKernel*> pin = ParsePqKernelSpec(env);
      if (!pin.ok()) {
        FTMS_LOG(Warning) << "FTMS_PQ_KERNEL: " << pin.status().ToString()
                          << "; auto-selecting";
      } else if (*pin != nullptr) {
        kernel = *pin;
        FTMS_LOG(Info) << "pq kernel pinned via FTMS_PQ_KERNEL="
                       << kernel->name;
      }
    }
    if (kernel == nullptr) {
      for (const PqKernel& candidate : CompiledPqKernels()) {
        if (candidate.supported()) kernel = &candidate;
      }
    }
    if (MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled()) {
      for (const PqKernel& candidate : CompiledPqKernels()) {
        Gauge* active = registry->GetGauge(
            LabeledName("ftms_parity_pq_kernel_active",
                        {{"kernel", candidate.name}}),
            "1 for the P+Q kernel the selector chose, 0 for the others");
        if (active != nullptr) active->Set(&candidate == kernel ? 1.0 : 0.0);
      }
    }
    return kernel;
  }();
  return *selected;
}

std::atomic<const PqKernel*> g_pinned{nullptr};

}  // namespace

std::span<const PqKernel> CompiledPqKernels() {
  static const std::vector<PqKernel> kernels = [] {
    std::vector<PqKernel> v;
    v.push_back(*internal::GetPqKernelScalar());
    for (const PqKernel* (*factory)() :
         {internal::GetPqKernelSsse3, internal::GetPqKernelAvx2,
          internal::GetPqKernelAvx512, internal::GetPqKernelGfni,
          internal::GetPqKernelNeon}) {
      if (const PqKernel* kernel = factory()) v.push_back(*kernel);
    }
    return v;
  }();
  return kernels;
}

const PqKernel& ActivePqKernel() {
  if (const PqKernel* pinned = g_pinned.load(std::memory_order_acquire)) {
    return *pinned;
  }
  return SelectedKernel();
}

const char* ActivePqKernelName() { return ActivePqKernel().name; }

void PqGenerateN(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                 int nsrc, size_t bytes, int first_index) {
  FTMS_PROF_SCOPE("parity/pq");
  const PqKernel& kernel = ActivePqKernel();
  uint8_t coeffs[kMaxPqSources];
  int index = first_index;
  while (nsrc > 0) {
    const int batch = nsrc < kMaxPqSources ? nsrc : kMaxPqSources;
    for (int s = 0; s < batch; ++s) {
      coeffs[s] = gf256::Exp(index + s);
    }
    kernel.pq(p, q, srcs, coeffs, batch, bytes);
    srcs += batch;
    index += batch;
    nsrc -= batch;
  }
}

void PqAccumulate(uint8_t* p, uint8_t* q, const uint8_t* const* srcs,
                  const uint8_t* coeffs, int nsrc, size_t bytes) {
  FTMS_PROF_SCOPE("parity/pq");
  const PqKernel& kernel = ActivePqKernel();
  while (nsrc > kMaxPqSources) {
    kernel.pq(p, q, srcs, coeffs, kMaxPqSources, bytes);
    srcs += kMaxPqSources;
    coeffs += kMaxPqSources;
    nsrc -= kMaxPqSources;
  }
  if (nsrc > 0) kernel.pq(p, q, srcs, coeffs, nsrc, bytes);
}

void GfMulXorInto(uint8_t* dst, const uint8_t* src, uint8_t c,
                  size_t bytes) {
  ActivePqKernel().mul_xor(dst, src, c, bytes);
}

StatusOr<const PqKernel*> FindPqKernel(std::string_view name) {
  std::string valid;
  for (const PqKernel& kernel : CompiledPqKernels()) {
    if (name == kernel.name) return &kernel;
    if (!valid.empty()) valid += ", ";
    valid += kernel.name;
  }
  return Status::InvalidArgument("unknown pq kernel '" + std::string(name) +
                                 "' (compiled kernels: " + valid + ")");
}

StatusOr<const PqKernel*> ParsePqKernelSpec(std::string_view spec) {
  if (spec.empty() || spec == "auto") {
    return static_cast<const PqKernel*>(nullptr);
  }
  StatusOr<const PqKernel*> kernel = FindPqKernel(spec);
  if (!kernel.ok()) return kernel.status();
  if (!(*kernel)->supported()) {
    return Status::FailedPrecondition("pq kernel '" + std::string(spec) +
                                      "' is not supported by this CPU");
  }
  return kernel;
}

void PinPqKernel(const PqKernel* kernel) {
  g_pinned.store(kernel, std::memory_order_release);
}

}  // namespace ftms
