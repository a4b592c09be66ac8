// The ftms benchmark binary.
//
//   ftms_perfbench --workload <farm_failover|rebuild_datapath|
//                              mttdl_montecarlo>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <path>]
//
// Repeats the workload's drill in a closed loop for --seconds and prints
// one JSON report on the last line of stdout: correctness, the exact
// counts of the drill, the environment stamp and either the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). End-to-end times are taken at nominal host speed: each
// untraced drill sits between two HostProbe calls and its times are
// divided by their factor (see FastDrillsAtNominalSpeed). perfbench/run.py
// builds this binary and turns the report into the benchmark's result
// line. Exit status: 0 when every output was correct, 1 when one was
// wrong, 2 on a usage error.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <thread>

#include "harness.h"
#include "parity/pq_kernels.h"
#include "parity/xor_kernels.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ftms_perfbench --workload <farm_failover|"
               "rebuild_datapath|mttdl_montecarlo> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      o->trace = value[0] == '1';
    } else if (arg == "--spans-out") {
      o->spans_out = value;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string EnvJson(int threads) {
  const char* threads_env = std::getenv("FTMS_THREADS");
  std::string out = "{";
  out += "\"cpu_model\": " + JsonString(CpuModel());
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"affinity_cpus\": " + std::to_string(AffinityCpus());
  out += ", \"compiler\": " + JsonString(std::string("gcc ") + __VERSION__);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"ftms_threads_env\": " +
         JsonString(threads_env != nullptr ? threads_env : "");
  out += ", \"xor_kernel\": " + JsonString(ftms::ActiveXorKernelName());
  out += ", \"pq_kernel\": " + JsonString(ftms::ActivePqKernelName());
  return out + "}";
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string SamplesJson(const std::vector<DrillResult>& drills,
                        double DrillResult::*field) {
  std::string out = "[";
  for (size_t i = 0; i < drills.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(drills[i].*field);
  }
  return out + "]";
}

// Checks every drill's exact counts against the first drill's.
void CheckCountsRepeat(const std::vector<const DrillResult*>& drills,
                       std::vector<std::string>* errors) {
  if (drills.empty()) return;
  const auto& first = drills.front()->counts;
  for (size_t i = 1; i < drills.size(); ++i) {
    const auto& c = drills[i]->counts;
    if (c.size() != first.size()) {
      errors->push_back("drill " + std::to_string(i) +
                        ": count set differs from drill 0");
      continue;
    }
    for (size_t k = 0; k < c.size(); ++k) {
      if (c[k].first != first[k].first || c[k].second != first[k].second) {
        errors->push_back("drill " + std::to_string(i) + ": count " +
                          c[k].first + " = " + JsonNumber(c[k].second) +
                          ", drill 0 had " + JsonNumber(first[k].second));
        break;
      }
    }
  }
}

// Pins the parity kernels, unless the caller already did, to the widest
// one this CPU runs. The dispatcher's own pick is a one-shot
// micro-benchmark that flips between near-equal kernels from process to
// process; a pin keeps every run on one host on the same code path, and
// the stamp shows which.
template <typename Kernel>
void PinWidest(const char* env, std::span<const Kernel> compiled,
               std::initializer_list<const char*> preference) {
  const char* set = std::getenv(env);
  if (set != nullptr && set[0] != '\0') return;
  for (const char* name : preference) {
    for (const Kernel& k : compiled) {
      if (std::strcmp(k.name, name) == 0 && k.supported()) {
        setenv(env, name, 1);
        return;
      }
    }
  }
}

// Moves the calling thread to the next CPU of its original affinity mask
// every kDwellNs, and restores the mask when destroyed. On a shared host
// a single core can run 1.3-1.5x slow for seconds at a time while other
// tenants load it; a serial drill loop left on the core the OS first
// picked inherits that core's luck for the whole run. Visiting every
// allowed CPU in turn spreads each run over all of them.
class CpuRotation {
 public:
  static constexpr int64_t kDwellNs = 500'000'000;

  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void MaybeAdvance() {
    if (cpus_.size() < 2) return;
    const int64_t now = NowNs();
    if (moved_ns_ != 0 && now - moved_ns_ < kDwellNs) return;
    moved_ns_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t moved_ns_ = 0;
};

// The drills the end-to-end figures come from, with every time divided by
// the drill's HostProbe factor: the fastest quarter by normalized set-up +
// run time, and more if that quarter holds fewer than kMinSteps steps. A
// drill that ran while its CPU was slower than the probes around it
// suggest falls out of the quarter; a program change moves every drill.
constexpr size_t kMinSteps = 1000;

std::vector<DrillResult> FastDrillsAtNominalSpeed(
    const std::vector<DrillResult>& drills) {
  std::vector<DrillResult> all;
  for (const DrillResult& d : drills) {
    DrillResult n;
    n.setup_s = d.setup_s / d.host_factor;
    n.run_s = d.run_s / d.host_factor;
    for (double ms : d.step_ms) n.step_ms.push_back(ms / d.host_factor);
    all.push_back(std::move(n));
  }
  std::sort(all.begin(), all.end(),
            [](const DrillResult& a, const DrillResult& b) {
              return a.setup_s + a.run_s < b.setup_s + b.run_s;
            });
  size_t keep = 0, steps = 0;
  while (keep < all.size() &&
         (4 * keep < all.size() || steps < kMinSteps)) {
    steps += all[keep++].step_ms.size();
  }
  all.resize(keep);
  return all;
}

int Run(const Options& o) {
  const int64_t process_start_ns = NowNs();
  PinWidest("FTMS_XOR_KERNEL", ftms::CompiledXorKernels(),
            {"avx512", "avx2", "neon", "sse2", "scalar"});
  PinWidest("FTMS_PQ_KERNEL", ftms::CompiledPqKernels(),
            {"gfni", "avx512", "avx2", "neon", "ssse3", "scalar"});
  std::unique_ptr<Workload> workload;
  if (o.workload == "farm_failover") {
    workload = MakeFarmFailover(o.seed);
  } else if (o.workload == "rebuild_datapath") {
    workload = MakeRebuildDatapath(o.seed);
  } else if (o.workload == "mttdl_montecarlo") {
    workload = MakeMttdlMonteCarlo(o.seed);
  } else {
    return Usage();
  }
  // Kernel selection runs once per process on first use; do it before the
  // first drill so no set-up or timed phase pays for it.
  const std::string env = EnvJson(workload->Threads());

  std::vector<DrillResult> untraced, traced, variant;
  HostProbe probe;
  double peak_rss_mb = 0;
  SpanLog spans(o.workload + "/" + std::to_string(o.seed));
  const int64_t loop_start_ns = NowNs();
  const auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - loop_start_ns) / 1e9;
  };
  const auto need_more = [&] {
    if (untraced.size() < 2) return true;
    if (o.trace && traced.size() < 2) return true;
    if (o.trace && workload->HasVariant() && variant.size() < 2) return true;
    return elapsed_s() < o.seconds;
  };
  // Traced runs interleave plain, traced and (optionally) variant drills
  // so drift on the host affects each kind alike.
  {
    CpuRotation rotation;
    for (int turn = 0; need_more(); ++turn) {
      if (workload->Threads() == 1) rotation.MaybeAdvance();
      const int kinds = !o.trace ? 1 : workload->HasVariant() ? 3 : 2;
      switch (turn % kinds) {
        case 0: {
          const double before = probe.Factor();
          untraced.push_back(workload->Drill({}));
          untraced.back().host_factor = std::sqrt(before * probe.Factor());
          // Later drills repeat the same work, while the benchmark's own
          // records of them grow with the run; read the peak before that.
          if (untraced.size() == 2) peak_rss_mb = PeakRssMb();
          break;
        }
        case 1:
          traced.push_back(workload->Drill({&spans, false}));
          break;
        default:
          variant.push_back(workload->Drill({nullptr, true}));
          break;
      }
    }
  }
  const double loop_s = elapsed_s();

  std::vector<std::string> errors;
  int64_t attempted = 0, failed = 0;
  std::vector<const DrillResult*> all;
  for (const auto* group : {&untraced, &traced, &variant}) {
    for (const DrillResult& d : *group) {
      all.push_back(&d);
      attempted += d.attempted;
      failed += d.failed;
      for (const std::string& e : d.errors) {
        if (errors.size() < 20 &&
            std::find(errors.begin(), errors.end(), e) == errors.end()) {
          errors.push_back(e);
        }
      }
    }
  }
  CheckCountsRepeat(all, &errors);

  MetricMap metrics;
  MetricMap extras;
  workload->Extras(untraced, &extras);
  if (!o.trace) {
    const std::vector<DrillResult> fast = FastDrillsAtNominalSpeed(untraced);
    std::vector<double> steps;
    for (const DrillResult& d : fast) {
      steps.insert(steps.end(), d.step_ms.begin(), d.step_ms.end());
    }
    metrics["setup_s"] = {MedianOf(fast, &DrillResult::setup_s), "s"};
    metrics["run_s"] = {MedianOf(fast, &DrillResult::run_s), "s"};
    metrics["step_ms_p50"] = {Quantile(steps, 0.50), "ms"};
    metrics["step_ms_p90"] = {Quantile(steps, 0.90), "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    // The p99 step is reported but not bounded: in farm_failover it is
    // set by the dozen failure and repair cycles per drill, whose cost
    // depends on which disk the seed fails, so it moves 15-20% from seed
    // to seed with no change in the program.
    extras["step_ms_p99"] = {Quantile(steps, 0.99), "ms"};
    extras["step_samples"] = {static_cast<double>(steps.size()), "count"};
    extras["fast_drills"] = {static_cast<double>(fast.size()), "count"};
    extras["host_factor_p50"] = {
        MedianOf(untraced, &DrillResult::host_factor), "ratio"};
    extras["raw_setup_s_p50"] = {MedianOf(untraced, &DrillResult::setup_s),
                                 "s"};
    extras["raw_run_s_p50"] = {MedianOf(untraced, &DrillResult::run_s), "s"};
    if (steps.size() < kMinSteps) {
      std::fprintf(stderr,
                   "warning: %zu steps: p99 has fewer than 10 samples "
                   "beyond it\n",
                   steps.size());
    }
  } else {
    const std::map<std::string, int64_t> self =
        spans.SelfNsByName("bench.run");
    double self_total = 0;
    std::map<std::string, double> by_layer;
    for (const auto& [name, ns] : self) {
      by_layer[LayerOf(name)] += static_cast<double>(ns);
      self_total += static_cast<double>(ns);
    }
    double traced_run_total = 0;
    for (const DrillResult& d : traced) traced_run_total += d.run_s;
    const double sum_ratio = self_total / 1e9 / traced_run_total;
    metrics["trace.run_s"] = {MedianOf(traced, &DrillResult::run_s), "s"};
    metrics["trace.self_sum_over_run"] = {sum_ratio, "ratio"};
    metrics["trace.spans_per_drill"] = {
        static_cast<double>(spans.spans().size()) /
            static_cast<double>(traced.size()),
        "count"};
    metrics["tracing.overhead_ratio"] = {
        MedianOf(traced, &DrillResult::run_s) /
            MedianOf(untraced, &DrillResult::run_s),
        "ratio"};
    for (const auto& [layer, ns] : by_layer) {
      metrics["self_share." + layer] = {ns / self_total, "share"};
    }
    // Self times are measured on the spans' clock, run_s on the drill's
    // own; the two must agree to within 1%.
    if (std::fabs(sum_ratio - 1.0) > 0.01) {
      errors.push_back("per-layer self times sum to " +
                       JsonNumber(sum_ratio) + " x run_s (tolerance 1%)");
    }
    workload->Layers({spans, untraced, traced, variant}, &metrics);
    std::set<std::string> known;
    for (const auto& [name, unit] : LayerMetricTable()) {
      known.insert(name);
      if (metrics.find(name) == metrics.end()) metrics[name] = {0.0, unit};
      if (metrics[name].unit != unit) {
        std::fprintf(stderr, "internal error: %s has unit %s, table %s\n",
                     name.c_str(), metrics[name].unit.c_str(), unit.c_str());
        return 2;
      }
    }
    for (const auto& [name, m] : metrics) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "internal error: unlisted metric %s\n",
                     name.c_str());
        return 2;
      }
    }
    if (!o.spans_out.empty() && !spans.WriteChromeJson(o.spans_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   o.spans_out.c_str());
    }
  }
  if (!errors.empty() && failed == 0) failed = 1;
  const bool correct = errors.empty();

  std::string out = "{\"workload\": " + JsonString(o.workload);
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"seconds\": " + JsonNumber(o.seconds);
  out += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
  out += ", \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(errors[i]);
  }
  out += "], \"env\": " + env;
  out += ", \"drills\": {\"untraced\": " + std::to_string(untraced.size()) +
         ", \"traced\": " + std::to_string(traced.size()) +
         ", \"variant\": " + std::to_string(variant.size()) + "}";
  out += ", \"process_init_s\": " +
         JsonNumber(static_cast<double>(loop_start_ns - process_start_ns) /
                    1e9);
  out += ", \"loop_s\": " + JsonNumber(loop_s);
  out += ", \"samples\": {\"setup_s\": " +
         SamplesJson(untraced, &DrillResult::setup_s) +
         ", \"run_s\": " + SamplesJson(untraced, &DrillResult::run_s) +
         ", \"host_factor\": " +
         SamplesJson(untraced, &DrillResult::host_factor) + "}";
  out += ", \"counts\": {";
  if (!untraced.empty()) {
    const auto& counts = untraced.front().counts;
    for (size_t i = 0; i < counts.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(counts[i].first) + ": " +
             JsonNumber(counts[i].second);
    }
  }
  out += "}, \"extras\": " + MetricsJson(extras);
  out += ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    return perfbench::Usage();
  }
  return perfbench::Run(options);
}
