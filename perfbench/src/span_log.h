// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark opens a span around every call it makes into a layer of
// the program (server, sched, stream, sim, verify, parity, qos, util,
// reliability) plus one root span per timed phase. Spans are kept in
// memory and written out once, when the run ends. Self time is a span's
// duration minus the durations of its direct children; because every span
// is opened and closed on the one benchmark thread in LIFO order, the
// self times of a root and all its descendants add up exactly to the
// root's duration.
#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into SpanLog::spans(), -1 for a root
};

class SpanLog {
 public:
  // `trace_id` names the workload run every span belongs to.
  explicit SpanLog(std::string trace_id) : trace_id_(std::move(trace_id)) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  int32_t Open(const char* name);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self nanoseconds per span name, over the trees whose root is named
  // `root` (for example "bench.run"), including the root itself.
  std::map<std::string, int64_t> SelfNsByName(const char* root) const;

  // Writes every span as Chrome trace-event JSON ("X" events, microsecond
  // timestamps relative to the first span), with the parent index and the
  // trace id in each event's args.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::string trace_id_;
  std::vector<Span> spans_;
  int32_t open_ = -1;  // innermost open span
};

// Opens a span for the lifetime of the object; does nothing when the log
// is null (untraced runs), so the untraced path pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// Layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
