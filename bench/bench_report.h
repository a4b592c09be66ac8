#ifndef FTMS_BENCH_BENCH_REPORT_H_
#define FTMS_BENCH_BENCH_REPORT_H_

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace ftms::bench {

// Wall-clock stopwatch for the perf-trajectory reports.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// A drill timed over several back-to-back runs. The median is the figure
// to compare, min the least disturbed run, and MAD (the median absolute
// deviation from the median) the spread a regression guard can rely on.
struct RepeatedTimings {
  double median_s = 0;
  double min_s = 0;
  double mad_s = 0;
  int runs = 0;
};

// Runs `drill(run)` for run = 0, 1, ... a fixed number of times (9),
// timing each run. Live sinks (metrics, QoS journal, profiler, time
// series) accumulate over every run. Drills are deterministic, so callers
// print their tables on run 0 only.
RepeatedTimings TimeRepeated(const std::function<void(int run)>& drill);

// Machine-readable perf snapshot: each bench collects a flat set of
// scalar metrics (wall time, trials/sec, cycles/sec, ...) and writes
// BENCH_<name>.json so successive PRs can be compared with
// tools/bench_diff.py.
//
// Schema version 2 added an "env" stamp (worker threads, whether the
// metrics registry was enabled — it skews timings) and, when
// the global registry is live, a full "registry" block of its metrics so
// the perf numbers and the observability counters land in one artifact.
// Schema version 3 adds "qos_enabled" to the env stamp and, when the QoS
// journal is live (FTMS_QOS=1), a "qos" block of per-kind journal event
// counts. bench_diff.py refuses to compare across schema versions.
// Still within v3 (additive key, old readers unaffected), the env stamp
// also carries "xor_kernel" — the dispatched multi-source XOR kernel
// (parity/xor_kernels.h), which materially changes every parity-heavy
// timing and so must travel with the numbers.
// Schema version 4 adds "prof_enabled" / "timeseries_enabled" to the env
// stamp (both skew timings when on) and two optional blocks: "profile"
// (the hierarchical wall-clock scope tree, when FTMS_PROF=1) and
// "timeseries" (the recorder's per-series summary, when
// FTMS_TIMESERIES=1). bench_diff.py diffs the profile tree node-by-node
// and uses it to attribute guarded-metric regressions to subsystems.
// Still within v4 (additive keys): a bench that repeats its drill reports
// "wall_s" as the median over "runs" runs, with "wall_s_min" and
// "wall_s_mad" beside it (Reporter::SetRepeated), and the env stamp
// carries the host's "cpu_model" and "cpu_count" (hardware threads).
//
// Environment knobs:
//   FTMS_BENCH_JSON=0        disable writing entirely
//   FTMS_BENCH_JSON_DIR=dir  target directory (default: current dir)
//   FTMS_METRICS_OUT=path    also export the global registry as
//                            Prometheus text to `path`
//   FTMS_QOS_OUT=path        also export the global QoS journal as
//                            JSONL to `path`
//   FTMS_PROF_OUT=path       also export the profiler tree as JSON to
//                            `path`
//   FTMS_TIMESERIES_OUT=path also export the time-series recorder as
//                            JSON to `path` (FTMS_TIMESERIES_CSV=path
//                            for the CSV flattening)
class Reporter {
 public:
  explicit Reporter(std::string name) : name_(std::move(name)) {}

  // Records (or overwrites) one scalar metric. Insertion order is kept in
  // the JSON output so the files diff cleanly run-to-run.
  void Set(const std::string& key, double value);

  // Records `key` = the median of `t`, plus `key`_min, `key`_mad and
  // "runs".
  void SetRepeated(const std::string& key, const RepeatedTimings& t);

  // Writes BENCH_<name>.json and returns its path; returns "" when
  // disabled via FTMS_BENCH_JSON=0 or when the file cannot be written.
  // Also prints a one-line "wrote ..." notice on success, and honors the
  // FTMS_*_OUT exports of the sinks that are live.
  std::string WriteJson() const;

  const std::string& name() const { return name_; }

  // The bench report schema emitted by WriteJson().
  static constexpr int kSchemaVersion = 4;

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace ftms::bench

#endif  // FTMS_BENCH_BENCH_REPORT_H_
