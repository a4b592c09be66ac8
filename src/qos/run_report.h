#ifndef FTMS_QOS_RUN_REPORT_H_
#define FTMS_QOS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ftms {

// Unified run report: one recorded run's QoS journal (JSONL), optionally
// joined with a bench/metrics snapshot (BENCH_*.json, schema >= 2) and a
// time-series dump (FTMS_TIMESERIES_OUT JSON). The loader is strict —
// malformed JSON, a journal line without a "kind", or a wrong top-level
// shape is an error, not a best-effort parse — because the report is the
// artifact operators act on.
struct RunReport {
  // One journal event on a timeline.
  struct TimelineEvent {
    int64_t sim_us = 0;
    int64_t cycle = -1;
    int64_t value = 0;
    int64_t disk = -1;
    int64_t cluster = -1;
    std::string kind;
    std::string scheme;
  };

  // One flattened profiler scope ("sched/cycle" under "sim/run" becomes
  // path "sim/run > sched/cycle").
  struct ProfileNode {
    std::string path;
    int depth = 0;
    int64_t count = 0;
    double wall_us = 0;
  };

  // One recorded time series, summarized.
  struct SeriesSummary {
    std::string name;
    size_t points = 0;
    int64_t stride = 1;
    int64_t t_first = 0;
    int64_t t_last = 0;
    double v_first = 0;
    double v_last = 0;
    double v_min = 0;
    double v_max = 0;
    // Full curve, kept for the rebuild/burn sections of the renderer.
    std::vector<std::pair<int64_t, double>> curve;
  };

  std::string journal_path;
  int64_t event_count = 0;
  int64_t horizon_us = 0;  // max sim_us across all events
  std::vector<std::pair<std::string, int64_t>> kind_counts;  // name-sorted

  std::vector<TimelineEvent> events;        // every event, journal order
  std::vector<TimelineEvent> hiccups;       // kind == "hiccups"
  std::vector<TimelineEvent> slo_breaches;  // kind == "slo_breach"
  std::vector<TimelineEvent> rebuild;       // rebuild_{start,progress,done}

  // From the optional bench/metrics JSON.
  bool has_metrics = false;
  std::string bench_name;
  int64_t schema_version = 0;
  std::vector<std::pair<std::string, double>> metrics;  // "metrics" block
  std::vector<ProfileNode> profile;  // flattened "profile" tree, preorder

  // From the optional time-series JSON.
  bool has_timeseries = false;
  std::vector<SeriesSummary> series;  // name-sorted
};

// Loads a report. `journal_path` is required; pass "" for the optional
// inputs. Errors: unreadable files, malformed JSON, journal lines missing
// "kind", a metrics file without a "metrics" object, a time-series file
// without a "series" object.
StatusOr<RunReport> LoadRunReport(const std::string& journal_path,
                                  const std::string& metrics_path,
                                  const std::string& timeseries_path);

// Renderers. Markdown is the human artifact (SLO burn, hiccup timeline,
// rebuild curve, per-subsystem time split); JSON is the machine one. All
// three are deterministic for identical inputs.
std::string RenderRunReportMarkdown(const RunReport& report);
std::string RenderRunReportJson(const RunReport& report);

// The journal as Chrome trace-event JSON, for chrome://tracing or
// Perfetto. Each scheme run is one track; a scheme's cycle counter going
// backwards starts a new run (a fresh rig appending to the same journal).
// A rebuild_start -> rebuild_done pair on one track becomes an "X" span
// named "rebuild"; every other event is an "i" instant with its disk,
// cluster and value as args. Timestamps are simulated microseconds.
std::string RenderRunReportChrome(const RunReport& report);

}  // namespace ftms

#endif  // FTMS_QOS_RUN_REPORT_H_
