// Shared machinery of the ftms_perfbench binary: seeded input generation, the
// workload interface, order statistics and the per-layer metric table.
//
// A workload is a repeatable "drill": one set-up followed by one timed
// phase, built from inputs that depend only on --seed. The runner repeats
// the drill back to back (the next starts when the previous returns)
// until --seconds have elapsed, so every drill of a run does identical
// simulated work and must produce identical exact counts.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "span_log.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// SplitMix64: the benchmark's own generator, so that the inputs a seed
// produces never change when the program's RNG does.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform integer in [0, n).
  int64_t Below(int64_t n);
  // Uniform double in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

// Zipf popularity over `n` ranks: P(rank r) proportional to 1/(r+1)^theta.
class Zipf {
 public:
  Zipf(int n, double theta);
  int Sample(InputRng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Outcome of one drill.
struct DrillResult {
  double setup_s = 0;          // wall time of the set-up work
  double run_s = 0;            // wall time of the timed phase
  std::vector<double> step_ms; // host time of each closed-loop step
  // HostProbe factor around the drill (untraced drills; 1 elsewhere).
  double host_factor = 1;
  // Exact simulated counts; must repeat bit-for-bit for a given seed.
  std::vector<std::pair<std::string, double>> counts;
  // Workload quantities the rates and per-layer figures are built from
  // (bytes verified, reads, time in degraded cycles, ...).
  std::map<std::string, double> work;
  // Per-call timing samples for per-layer medians (traced drills only).
  std::map<std::string, std::vector<double>> dist;
  std::vector<std::string> errors;  // wrong outputs
  int64_t attempted = 0;            // operations checked
  int64_t failed = 0;               // operations whose output was wrong
};

// What a drill should record beyond its timings.
struct DrillOptions {
  SpanLog* spans = nullptr;  // non-null in traced drills
  bool variant = false;      // workload-defined A/B switch (see Workload)
};

// Inputs of the per-layer computation at the end of a traced run.
struct TracedRun {
  const SpanLog& spans;
  const std::vector<DrillResult>& untraced;  // plain drills
  const std::vector<DrillResult>& traced;    // drills with spans
  const std::vector<DrillResult>& variant;   // untraced, variant=true
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual DrillResult Drill(const DrillOptions& options) = 0;
  // True when the traced run should also time the variant drill (for
  // rebuild_datapath: observability sinks detached).
  virtual bool HasVariant() const { return false; }
  // Threads the drill runs the program on (stamped into the report).
  // Every workload uses one unless FTMS_THREADS is set: with one pool
  // worker per core the pooled paths wait on whichever core another tenant
  // of a shared host is loading, and between ten runs of the same code on
  // a 4-vCPU host their figures spread by 20-67% against 8-20% serial.
  // The pools' gain or cost is reported per layer instead. At one thread
  // the binary also moves its calling thread between CPUs (CpuRotation in
  // main.cc); with a busy pool that pin would collide with a worker.
  virtual int Threads() const = 0;
  // Workload-specific end-to-end figures for the report (the result
  // line carries only the common ones).
  virtual void Extras(const std::vector<DrillResult>& drills,
                      MetricMap* out) const = 0;
  // Per-layer figures of a traced run; unset names default to 0 (layer
  // not exercised by this workload).
  virtual void Layers(const TracedRun& run, MetricMap* out) = 0;
};

std::unique_ptr<Workload> MakeFarmFailover(uint64_t seed);
std::unique_ptr<Workload> MakeRebuildDatapath(uint64_t seed);
std::unique_ptr<Workload> MakeMttdlMonteCarlo(uint64_t seed);

// --- statistics ---

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty one.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Median of a per-drill field.
double MedianOf(const std::vector<DrillResult>& drills,
                double DrillResult::*field);
// Median over drills of work[key]; 0 when absent.
double MedianWork(const std::vector<DrillResult>& drills,
                  const std::string& key);
// Sum over drills of work[key].
double SumWork(const std::vector<DrillResult>& drills, const std::string& key);
// All dist[key] samples of the drills, pooled.
std::vector<double> Pooled(const std::vector<DrillResult>& drills,
                           const std::string& key);

// Per-layer self-time helpers over the traced drills' "bench.run" trees.
// Self nanoseconds of every span whose name starts with `prefix`.
int64_t SelfNsWithPrefix(const SpanLog& spans, const std::string& prefix);

// Figures shared by the workloads that drive the cycle schedulers. They
// read the drills' work["reads" | "hiccups" | "delivered" | "admitted" |
// "sched.<count>"] and dist["<scheme>.cycle_ms" | "degraded_cycle_ms" |
// "admit_us"], and the "sched." spans.
// Extras: reads_per_s, cycle_ms_p50/p99, cycle_samples, hiccup_share.
void SchedulerExtras(const std::vector<DrillResult>& drills, MetricMap* out);
// Per-layer: sched.ns_per_read, sched.<scheme>.cycle_ms_p50 for each of
// `schemes`, sched.degraded_cycle_ms_p50, the sched.* exact counts,
// stream.admit_us_p50 and stream.admitted.
void SchedulerLayers(const TracedRun& run,
                     const std::vector<std::string>& schemes, MetricMap* out);

// How fast the host runs right now, measured with fixed work that shares
// no code with the program. The development host is a VM whose vCPUs run
// the same instructions up to ~1.6x slower for seconds (one vCPU) to
// minutes (all of them) while other tenants load the machine; ten runs of
// the same code then spread by 20-40% in raw wall time. The probe times
// four small kernels, each about 0.6 ms here: a dependent integer hash
// chain (core), dependent loads over a 2 MB table (cache), first touches
// of freshly mapped pages (page faults, which the drills' allocations
// take), and a byte-wise pass over 256 KB (streaming). Factor() is their
// geometric-mean time over kNominalNs, which is that mean on an unloaded
// development host, so it reads about 1 there and 1.3-1.6 on a loaded one.
class HostProbe {
 public:
  static constexpr double kNominalNs = 640e3;

  HostProbe();
  double Factor();

 private:
  std::vector<uint64_t> table_;
  std::vector<uint8_t> stream_in_, stream_out_;
};

// Peak resident set of this process in MB.
double PeakRssMb();

// The per-layer metric table (names and units); BENCHMARK.json's
// per_layer list must match it exactly.
const std::vector<std::pair<std::string, std::string>>& LayerMetricTable();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
