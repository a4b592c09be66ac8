#include "bench/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "parity/pq_kernels.h"
#include "parity/xor_kernels.h"
#include "qos/event_journal.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/thread_pool.h"
#include "util/timeseries.h"

namespace ftms::bench {
namespace {

// Formats a double compactly without losing round-trip precision for the
// magnitudes benches produce (counts, seconds, rates).
void AppendNumber(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

// Back-to-back runs of a repeated drill: enough for a median and MAD that
// load during one run cannot move, in ~0.15 s for the full-farm drill. A
// fixed count keeps live sinks deterministic: their counts cover exactly
// this many drills.
constexpr int kRepeatedRuns = 9;

// The host CPU's "model name" from /proc/cpuinfo ("unknown" elsewhere),
// as a JSON string literal.
std::string CpuModelJson() {
  std::string model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* value = std::strchr(line, ':');
      if (value == nullptr) continue;
      value += std::strspn(value + 1, " \t") + 1;
      model.assign(value, std::strcspn(value, "\n"));
      break;
    }
    std::fclose(f);
  }
  std::string json = "\"";
  for (const char c : model) {
    if (c == '"' || c == '\\') json.push_back('\\');
    json.push_back(c);
  }
  return json + "\"";
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

RepeatedTimings TimeRepeated(const std::function<void(int run)>& drill) {
  std::vector<double> seconds;
  for (int run = 0; run < kRepeatedRuns; ++run) {
    WallTimer timer;
    drill(run);
    seconds.push_back(timer.Seconds());
  }
  RepeatedTimings t;
  t.median_s = Median(seconds);
  t.min_s = *std::min_element(seconds.begin(), seconds.end());
  std::vector<double> deviations;
  for (double s : seconds) deviations.push_back(std::fabs(s - t.median_s));
  t.mad_s = Median(std::move(deviations));
  t.runs = static_cast<int>(seconds.size());
  return t;
}

void Reporter::SetRepeated(const std::string& key, const RepeatedTimings& t) {
  Set(key, t.median_s);
  Set(key + "_min", t.min_s);
  Set(key + "_mad", t.mad_s);
  Set("runs", t.runs);
}

void Reporter::Set(const std::string& key, double value) {
  for (auto& [k, v] : metrics_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(key, value);
}

std::string Reporter::WriteJson() const {
  if (const char* enabled = std::getenv("FTMS_BENCH_JSON")) {
    if (std::strcmp(enabled, "0") == 0) return "";
  }
  std::string dir = ".";
  if (const char* env_dir = std::getenv("FTMS_BENCH_JSON_DIR")) {
    if (env_dir[0] != '\0') dir = env_dir;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";

  MetricsRegistry* registry = MetricsRegistry::GlobalIfEnabled();
  EventJournal* journal = EventJournal::GlobalIfEnabled();
  TimeSeriesRecorder* timeseries = TimeSeriesRecorder::GlobalIfEnabled();
  const bool prof = Profiler::GlobalEnabled();
  // Writing a report is a serial point: fold worker scope trees first so
  // the embedded profile sees everything.
  if (prof) Profiler::FoldAtSyncPoint();

  std::string json = "{\n  \"bench\": \"" + name_ + "\",\n";
  json += "  \"schema_version\": " + std::to_string(kSchemaVersion) + ",\n";
  // Environment stamp: anything that changes what the timings mean.
  json += "  \"env\": {\n";
  json += "    \"threads\": " +
          std::to_string(ThreadPool::DefaultThreadCount()) + ",\n";
  json += std::string("    \"metrics_enabled\": ") +
          (registry != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"qos_enabled\": ") +
          (journal != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"prof_enabled\": ") + (prof ? "true" : "false") +
          ",\n";
  json += std::string("    \"timeseries_enabled\": ") +
          (timeseries != nullptr ? "true" : "false") + ",\n";
  json += std::string("    \"xor_kernel\": \"") + ActiveXorKernelName() +
          "\",\n";
  json += std::string("    \"pq_kernel\": \"") + ActivePqKernelName() +
          "\",\n";
  json += "    \"cpu_model\": " + CpuModelJson() + ",\n";
  json += "    \"cpu_count\": " +
          std::to_string(std::thread::hardware_concurrency()) + "\n";
  json += "  },\n";
  json += "  \"metrics\": {\n";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += "    \"" + metrics_[i].first + "\": ";
    AppendNumber(&json, metrics_[i].second);
    json += i + 1 < metrics_.size() ? ",\n" : "\n";
  }
  json += "  }";
  if (registry != nullptr) {
    json += ",\n  \"registry\": ";
    json += registry->JsonObject("    ", "  ");
  }
  if (journal != nullptr) {
    json += ",\n  \"qos\": ";
    json += journal->StatsJson("    ", "  ");
  }
  if (prof) {
    json += ",\n  \"profile\": ";
    json += Profiler::SnapshotJson();
  }
  if (timeseries != nullptr) {
    json += ",\n  \"timeseries\": ";
    json += timeseries->SummaryJson("    ", "  ");
  }
  json += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    return "";
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  if (registry != nullptr) {
    if (const char* out = std::getenv("FTMS_METRICS_OUT")) {
      if (out[0] != '\0' && registry->WritePrometheusFile(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (journal != nullptr) {
    if (const char* out = std::getenv("FTMS_QOS_OUT")) {
      if (out[0] != '\0' && journal->WriteJsonl(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (prof) {
    if (const char* out = std::getenv("FTMS_PROF_OUT")) {
      if (out[0] != '\0' && Profiler::WriteJson(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  if (timeseries != nullptr) {
    if (const char* out = std::getenv("FTMS_TIMESERIES_OUT")) {
      if (out[0] != '\0' && timeseries->WriteJson(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
    if (const char* out = std::getenv("FTMS_TIMESERIES_CSV")) {
      if (out[0] != '\0' && timeseries->WriteCsv(out).ok()) {
        std::printf("wrote %s\n", out);
      }
    }
  }
  return path;
}

}  // namespace ftms::bench
