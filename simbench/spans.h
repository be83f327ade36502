// Host-time spans recorded from the benchmark's own code around each call it
// makes into the simulator's layers (setup phases, RunUntil slices, every
// SubmitQuery). Spans live in memory during a round and are written out as
// Chrome-trace JSON (chrome://tracing, ui.perfetto.dev) when the run ends.
#ifndef SIMBENCH_SPANS_H_
#define SIMBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

using HostClock = std::chrono::steady_clock;

inline double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name = "";  // a string literal
    int64_t start_ns = 0;   // host ns since the recorder's origin
    int64_t end_ns = 0;
    int parent = kNoParent;  // index of the enclosing span
    int64_t id = -1;         // request id (query id) or -1
  };

  SpanRecorder() : origin_(HostClock::now()) {}

  // Opens a span; returns its index for End() and as a parent.
  int Begin(const char* name, int parent, int64_t id = -1) {
    spans_.push_back(Span{name, Now(), 0, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = Now(); }
  // Records a span whose end the caller has just measured.
  void Add(const char* name, HostClock::time_point start, HostClock::time_point end,
           int parent, int64_t id) {
    spans_.push_back(Span{name, Ns(start), Ns(end), parent, id});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of the durations of the spans named `name`, in seconds.
  double TotalSeconds(const char* name) const;
  // Number of spans named `name`.
  int64_t Count(const char* name) const;

  // Chrome-trace JSON of all spans as complete ("X") events on one track;
  // spans nest by time, and `parent`/`id` ride along in args.
  std::string ToChromeTrace(const std::string& process_name) const;

 private:
  int64_t Ns(HostClock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  int64_t Now() const { return Ns(HostClock::now()); }

  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace simbench

#endif  // SIMBENCH_SPANS_H_
