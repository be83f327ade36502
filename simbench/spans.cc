#include "simbench/spans.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace simbench {

double SpanRecorder::TotalSeconds(const char* name) const {
  int64_t total_ns = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      total_ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total_ns) * 1e-9;
}

int64_t SpanRecorder::Count(const char* name) const {
  int64_t count = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      ++count;
    }
  }
  return count;
}

std::string SpanRecorder::ToChromeTrace(const std::string& process_name) const {
  std::string out = "{\"traceEvents\":[\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                "\"args\":{\"name\":\"%s\"}}",
                process_name.c_str());
  out += line;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Chrome-trace timestamps are microseconds; keep the ns digits.
    std::snprintf(line, sizeof(line),
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%" PRId64 "}}",
                  span.name, static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i, span.parent,
                  span.id);
    out += line;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace simbench
