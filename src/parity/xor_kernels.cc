#include "parity/xor_kernels.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "parity/xor_kernels_internal.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace ftms {
namespace {

// The FTMS_XOR_KERNEL pin when it names a runnable kernel, otherwise the
// widest supported one: compiled kernels are listed narrowest first and
// none is slower than the ones before it (bench_parity_kernels), so the
// last supported entry wins (scalar, first, always is).
const XorKernel& SelectedKernel() {
  static const XorKernel* const selected = [] {
    const XorKernel* kernel = nullptr;
    if (const char* env = std::getenv("FTMS_XOR_KERNEL")) {
      StatusOr<const XorKernel*> pin = ParseXorKernelSpec(env);
      if (!pin.ok()) {
        FTMS_LOG(Warning) << "FTMS_XOR_KERNEL: " << pin.status().ToString()
                          << "; auto-selecting";
      } else if (*pin != nullptr) {
        kernel = *pin;
        FTMS_LOG(Info) << "xor kernel pinned via FTMS_XOR_KERNEL="
                       << kernel->name;
      }
    }
    if (kernel == nullptr) {
      for (const XorKernel& candidate : CompiledXorKernels()) {
        if (candidate.supported()) kernel = &candidate;
      }
    }
    if (MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled()) {
      for (const XorKernel& candidate : CompiledXorKernels()) {
        Gauge* active = registry->GetGauge(
            LabeledName("ftms_parity_kernel_active",
                        {{"kernel", candidate.name}}),
            "1 for the XOR kernel the selector chose, 0 for the others");
        if (active != nullptr) active->Set(&candidate == kernel ? 1.0 : 0.0);
      }
    }
    return kernel;
  }();
  return *selected;
}

std::atomic<const XorKernel*> g_pinned{nullptr};

}  // namespace

std::span<const XorKernel> CompiledXorKernels() {
  static const std::vector<XorKernel> kernels = [] {
    std::vector<XorKernel> v;
    v.push_back(*internal::GetXorKernelScalar());
    for (const XorKernel* (*factory)() :
         {internal::GetXorKernelSse2, internal::GetXorKernelAvx2,
          internal::GetXorKernelAvx512, internal::GetXorKernelNeon}) {
      if (const XorKernel* kernel = factory()) v.push_back(*kernel);
    }
    return v;
  }();
  return kernels;
}

const XorKernel& ActiveXorKernel() {
  if (const XorKernel* pinned = g_pinned.load(std::memory_order_acquire)) {
    return *pinned;
  }
  return SelectedKernel();
}

const char* ActiveXorKernelName() { return ActiveXorKernel().name; }

void XorIntoN(uint8_t* dst, const uint8_t* const* srcs, int nsrc,
              size_t bytes) {
  FTMS_PROF_SCOPE("parity/xor");
  const XorKernel& kernel = ActiveXorKernel();
  while (nsrc > kMaxXorSources) {
    kernel.xor_n(dst, srcs, kMaxXorSources, bytes);
    srcs += kMaxXorSources;
    nsrc -= kMaxXorSources;
  }
  if (nsrc > 0) kernel.xor_n(dst, srcs, nsrc, bytes);
}

StatusOr<const XorKernel*> FindXorKernel(std::string_view name) {
  std::string valid;
  for (const XorKernel& kernel : CompiledXorKernels()) {
    if (name == kernel.name) return &kernel;
    if (!valid.empty()) valid += ", ";
    valid += kernel.name;
  }
  return Status::InvalidArgument("unknown xor kernel '" + std::string(name) +
                                 "' (compiled kernels: " + valid + ")");
}

StatusOr<const XorKernel*> ParseXorKernelSpec(std::string_view spec) {
  if (spec.empty() || spec == "auto") {
    return static_cast<const XorKernel*>(nullptr);
  }
  StatusOr<const XorKernel*> kernel = FindXorKernel(spec);
  if (!kernel.ok()) return kernel.status();
  if (!(*kernel)->supported()) {
    return Status::FailedPrecondition("xor kernel '" + std::string(spec) +
                                      "' is not supported by this CPU");
  }
  return kernel;
}

void PinXorKernel(const XorKernel* kernel) {
  g_pinned.store(kernel, std::memory_order_release);
}

}  // namespace ftms
