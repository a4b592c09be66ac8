#include "span_log.h"

#include <cassert>
#include <cstdio>
#include <cstring>

namespace perfbench {

int32_t SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::Close(int32_t index) {
  assert(index == open_ && "spans must close in LIFO order");
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::map<std::string, int64_t> SpanLog::SelfNsByName(const char* root) const {
  // A span belongs to the selected trees when its root carries `root`;
  // parents precede children, so one forward pass resolves every root.
  std::vector<int32_t> root_of(spans_.size(), -1);
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root_of[i] = s.parent < 0 ? static_cast<int32_t>(i)
                              : root_of[static_cast<size_t>(s.parent)];
    if (std::strcmp(spans_[static_cast<size_t>(root_of[i])].name, root) != 0) {
      continue;
    }
    const int64_t dur = s.end_ns - s.start_ns;
    self[s.name] += dur;
    if (s.parent >= 0) self[spans_[static_cast<size_t>(s.parent)].name] -= dur;
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"trace_id\": "
                 "\"%s\"}}",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, trace_id_.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
