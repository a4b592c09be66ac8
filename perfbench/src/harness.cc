#include "harness.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t InputRng::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

double InputRng::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(int n, double theta) : cdf_(static_cast<size_t>(n)) {
  double sum = 0;
  for (int r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[static_cast<size_t>(r)] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int Zipf::Sample(InputRng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(),
                          static_cast<ptrdiff_t>(cdf_.size()) - 1));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double MedianOf(const std::vector<DrillResult>& drills,
                double DrillResult::*field) {
  std::vector<double> v;
  for (const DrillResult& d : drills) v.push_back(d.*field);
  return Median(std::move(v));
}

double MedianWork(const std::vector<DrillResult>& drills,
                  const std::string& key) {
  std::vector<double> v;
  for (const DrillResult& d : drills) {
    const auto it = d.work.find(key);
    v.push_back(it == d.work.end() ? 0.0 : it->second);
  }
  return Median(std::move(v));
}

double SumWork(const std::vector<DrillResult>& drills,
               const std::string& key) {
  double sum = 0;
  for (const DrillResult& d : drills) {
    const auto it = d.work.find(key);
    if (it != d.work.end()) sum += it->second;
  }
  return sum;
}

std::vector<double> Pooled(const std::vector<DrillResult>& drills,
                           const std::string& key) {
  std::vector<double> all;
  for (const DrillResult& d : drills) {
    const auto it = d.dist.find(key);
    if (it != d.dist.end()) {
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return all;
}

int64_t SelfNsWithPrefix(const SpanLog& spans, const std::string& prefix) {
  int64_t total = 0;
  for (const auto& [name, ns] : spans.SelfNsByName("bench.run")) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += ns;
  }
  return total;
}

void SchedulerExtras(const std::vector<DrillResult>& drills, MetricMap* out) {
  std::vector<double> cycles;
  double run_total = 0;
  for (const DrillResult& d : drills) {
    cycles.insert(cycles.end(), d.step_ms.begin(), d.step_ms.end());
    run_total += d.run_s;
  }
  (*out)["reads_per_s"] = {SumWork(drills, "reads") / run_total, "1/s"};
  (*out)["cycle_ms_p50"] = {Quantile(cycles, 0.5), "ms"};
  (*out)["cycle_ms_p99"] = {Quantile(cycles, 0.99), "ms"};
  (*out)["cycle_samples"] = {static_cast<double>(cycles.size()), "count"};
  const double hiccups = MedianWork(drills, "hiccups");
  const double delivered = MedianWork(drills, "delivered");
  (*out)["hiccup_share"] = {hiccups / (hiccups + delivered), "share"};
}

void SchedulerLayers(const TracedRun& run,
                     const std::vector<std::string>& schemes,
                     MetricMap* out) {
  (*out)["sched.ns_per_read"] = {
      static_cast<double>(SelfNsWithPrefix(run.spans, "sched.")) /
          SumWork(run.traced, "reads"),
      "ns/read"};
  for (const std::string& key : schemes) {
    (*out)["sched." + key + ".cycle_ms_p50"] = {
        Median(Pooled(run.traced, key + ".cycle_ms")), "ms/cycle"};
  }
  (*out)["sched.degraded_cycle_ms_p50"] = {
      Median(Pooled(run.traced, "degraded_cycle_ms")), "ms/cycle"};
  const DrillResult& first = run.traced.front();
  for (const char* count :
       {"cycles", "reads", "dropped_reads", "hiccups", "reconstructed"}) {
    const std::string name = std::string("sched.") + count;
    (*out)[name] = {first.work.at(name), "count"};
  }
  (*out)["stream.admit_us_p50"] = {Median(Pooled(run.traced, "admit_us")),
                                   "us/admit"};
  (*out)["stream.admitted"] = {first.work.at("admitted"), "count"};
}

namespace {

// Keeps the probe's results alive so the compiler cannot drop its loops.
volatile uint64_t probe_sink;

constexpr size_t kProbeTableWords = size_t{1} << 18;  // 2 MB
constexpr size_t kProbeMapBytes = size_t{1} << 20;
constexpr size_t kProbeStreamBytes = 256 * 1024;

}  // namespace

HostProbe::HostProbe()
    : table_(kProbeTableWords),
      stream_in_(kProbeStreamBytes, 1),
      stream_out_(kProbeStreamBytes) {
  InputRng rng(1);
  for (uint64_t& word : table_) word = rng.Next();
}

double HostProbe::Factor() {
  double log_sum = 0;
  const auto lap = [&log_sum](int64_t start) {
    log_sum += std::log(static_cast<double>(NowNs() - start));
  };

  int64_t t = NowNs();
  uint64_t z = 12345;
  for (int i = 0; i < 200000; ++i) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z ^= z >> 27;
  }
  probe_sink = z;
  lap(t);

  t = NowNs();
  uint64_t j = 3;
  for (int i = 0; i < 150000; ++i) {
    j = (table_[j & (kProbeTableWords - 1)] ^ j) * 0x94d049bb133111ebull;
  }
  probe_sink = j;
  lap(t);

  t = NowNs();
  for (int rep = 0; rep < 2; ++rep) {
    void* map = mmap(nullptr, kProbeMapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) continue;
    auto* bytes = static_cast<uint8_t*>(map);
    for (size_t k = 0; k < kProbeMapBytes; k += 4096) {
      bytes[k] = static_cast<uint8_t>(k >> 12);
    }
    probe_sink = bytes[3 * 4096];
    munmap(map, kProbeMapBytes);
  }
  lap(t);

  t = NowNs();
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t k = 0; k < kProbeStreamBytes; ++k) {
      stream_out_[k] = static_cast<uint8_t>(
          stream_out_[k] ^ stream_in_[(k * 7) & (kProbeStreamBytes - 1)] ^
          rep);
    }
  }
  probe_sink = stream_out_[123];
  lap(t);

  return std::exp(log_sum / 4) / kNominalNs;
}

double PeakRssMb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // survives execve, so under a larger launcher (run.py's Python) it
  // reports the launcher's size instead of the program's.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricTable() {
  static const auto* table =
      new std::vector<std::pair<std::string, std::string>>{
          // Every workload: where the traced run's time went.
          {"trace.run_s", "s"},
          {"trace.self_sum_over_run", "ratio"},
          {"trace.spans_per_drill", "count"},
          {"tracing.overhead_ratio", "ratio"},
          {"self_share.bench", "share"},
          {"self_share.server", "share"},
          {"self_share.sched", "share"},
          {"self_share.sim", "share"},
          {"self_share.qos", "share"},
          {"self_share.util", "share"},
          {"self_share.reliability", "share"},
          // Scheduler, buffers, admission and the event engine.
          {"sched.ns_per_read", "ns/read"},
          {"sched.sr.cycle_ms_p50", "ms/cycle"},
          {"sched.sg.cycle_ms_p50", "ms/cycle"},
          {"sched.nc.cycle_ms_p50", "ms/cycle"},
          {"sched.ib.cycle_ms_p50", "ms/cycle"},
          {"sched.sr2.cycle_ms_p50", "ms/cycle"},
          {"sched.nc2.cycle_ms_p50", "ms/cycle"},
          {"sched.degraded_cycle_ms_p50", "ms/cycle"},
          {"sched.pool_over_serial", "ratio"},
          {"sched.cycles", "count"},
          {"sched.reads", "count"},
          {"sched.dropped_reads", "count"},
          {"sched.hiccups", "count"},
          {"sched.reconstructed", "count"},
          {"buffer.sr.peak_tracks", "tracks"},
          {"buffer.sg.peak_tracks", "tracks"},
          {"buffer.nc.peak_tracks", "tracks"},
          {"buffer.ib.peak_tracks", "tracks"},
          {"buffer.sr2.peak_tracks", "tracks"},
          {"buffer.nc2.peak_tracks", "tracks"},
          {"buffer.sr.peak_over_eq", "ratio"},
          {"buffer.sg.peak_over_eq", "ratio"},
          {"buffer.nc.peak_over_eq", "ratio"},
          {"buffer.ib.peak_over_eq", "ratio"},
          {"buffer.sr2.peak_over_eq", "ratio"},
          {"buffer.nc2.peak_over_eq", "ratio"},
          {"stream.admit_us_p50", "us/admit"},
          {"stream.admitted", "count"},
          {"stream.refused", "count"},
          {"sim.events", "count"},
          {"sim.self_ns_per_event", "ns/event"},
          // Byte-level rebuild, verification, parity kernels, observability.
          {"rebuild.ns_per_track", "ns/track"},
          {"rebuild.tracks_per_cycle", "tracks/cycle"},
          {"rebuild.stall_share", "share"},
          {"rebuild.mb_per_s", "MB/s"},
          {"rebuild.data_tracks", "count"},
          {"verify.synthesize_mb_per_s", "MB/s"},
          {"verify.integrity_ns_per_track", "ns/track"},
          {"parity.xor_gb_per_s", "GB/s"},
          {"parity.pq_gb_per_s", "GB/s"},
          {"parity.kernel_over_rebuild", "ratio"},
          {"qos.watchdog_ms", "ms/drill"},
          {"qos.journal_events", "count"},
          {"util.metrics_render_ms", "ms/drill"},
          {"util.timeseries_dump_ms", "ms/drill"},
          {"obs.overhead_ratio", "ratio"},
          // Monte-Carlo reliability.
          {"reliability.sr.ns_per_trial", "ns/trial"},
          {"reliability.ib.ns_per_trial", "ns/trial"},
          {"reliability.sr2.ns_per_trial", "ns/trial"},
          {"reliability.kconc.ns_per_trial", "ns/trial"},
          {"reliability.parallel_speedup", "ratio"},
          {"reliability.trials", "count"},
      };
  return *table;
}

}  // namespace perfbench
