#include "simbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace simbench {

namespace {

void Fail(std::vector<std::string>* failures, const char* format, double a, double b) {
  char message[256];
  std::snprintf(message, sizeof(message), format, a, b);
  failures->push_back(message);
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

void CheckConservation(const RoundResult& r, std::vector<std::string>* failures) {
  int64_t window_arrivals = 0;
  int64_t inflight_now = 0;
  int64_t inflight_at_reset = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  for (const QuerySample& q : r.queries) {
    const bool in_flight = q.finish < 0;
    window_arrivals += q.submit > r.warmup ? 1 : 0;
    inflight_now += in_flight ? 1 : 0;
    inflight_at_reset += (q.submit <= r.warmup && (in_flight || q.finish > r.warmup)) ? 1 : 0;
    if (!in_flight && q.finish > r.warmup) {
      (q.dropped ? failed : completed) += 1;
    }
  }
  const auto d = [](int64_t v) { return static_cast<double>(v); };
  if (r.client_submitted != d(r.queries.size())) {
    Fail(failures, "conservation: client submitted %.0f, benchmark counted %.0f arrivals",
         d(r.client_submitted), d(static_cast<int64_t>(r.queries.size())));
  }
  if (r.prog_submitted != window_arrivals) {
    Fail(failures, "conservation: program submitted %.0f in the window, benchmark counted %.0f",
         d(r.prog_submitted), d(window_arrivals));
  }
  if (r.prog_completed != completed) {
    Fail(failures, "conservation: program completed %.0f, benchmark saw %.0f",
         d(r.prog_completed), d(completed));
  }
  if (r.prog_failed != failed) {
    Fail(failures, "conservation: program failed %.0f, benchmark saw %.0f", d(r.prog_failed),
         d(failed));
  }
  if (r.prog_inflight != inflight_now) {
    Fail(failures, "conservation: program has %.0f in flight, benchmark %.0f",
         d(r.prog_inflight), d(inflight_now));
  }
  if (r.prog_inflight_at_reset >= 0 && r.prog_inflight_at_reset != inflight_at_reset) {
    Fail(failures, "conservation: program had %.0f in flight at the reset, benchmark %.0f",
         d(r.prog_inflight_at_reset), d(inflight_at_reset));
  }
  if (r.prog_submitted + inflight_at_reset != r.prog_completed + r.prog_failed + inflight_now) {
    Fail(failures, "conservation: submitted + carried %.0f != completed + failed + in flight %.0f",
         d(r.prog_submitted + inflight_at_reset),
         d(r.prog_completed + r.prog_failed + inflight_now));
  }
}

void CheckLatency(const RoundResult& r, std::vector<std::string>* failures) {
  std::vector<double> window;
  int64_t mismatched = 0;
  double first_reported = 0;
  double first_own = 0;
  for (const QuerySample& q : r.queries) {
    if (q.finish < 0) {
      continue;
    }
    const double own_ms = perfiso::ToMillis(q.finish - q.submit);
    if (q.reported_submit != q.submit || !Close(q.reported_ms, own_ms)) {
      if (mismatched++ == 0) {
        first_reported = q.reported_ms;
        first_own = own_ms;
      }
    }
    if (!q.dropped && q.finish > r.warmup) {
      window.push_back(own_ms);
    }
  }
  if (mismatched > 0) {
    Fail(failures, "latency: reported %.9f ms where submit-to-completion was %.9f ms",
         first_reported, first_own);
  }
  if (static_cast<int64_t>(window.size()) != r.prog_samples) {
    Fail(failures, "latency: recorder holds %.0f samples, benchmark timed %.0f",
         static_cast<double>(r.prog_samples), static_cast<double>(window.size()));
  }
  std::vector<double> sorted = window;
  const double p50 = NearestRank(&sorted, 50);
  const double p99 = NearestRank(&sorted, 99);
  if (!Close(r.prog_p50_ms, p50)) {
    Fail(failures, "latency: recorder P50 %.9f ms, recomputed %.9f ms", r.prog_p50_ms, p50);
  }
  if (!Close(r.prog_p99_ms, p99)) {
    Fail(failures, "latency: recorder P99 %.9f ms, recomputed %.9f ms", r.prog_p99_ms, p99);
  }
}

void CheckArrivalRate(const RoundResult& r, std::vector<std::string>* failures) {
  const auto check = [failures](const char* what, double observed, double expected) {
    if (std::fabs(observed - expected) > 5 * std::sqrt(expected) + 1) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "arrival rate: %.0f arrivals over the %s, load shape integrates to %.1f",
                    observed, what, expected);
      failures->push_back(message);
    }
  };
  check("window", static_cast<double>(r.arrivals_window), r.expected_window);
  check("run", static_cast<double>(r.queries.size()), r.expected_total);
}

void CheckCpuAccounting(const RoundResult& r, std::vector<std::string>* failures) {
  const double window = static_cast<double>(r.window);
  for (size_t i = 0; i < r.machines.size(); ++i) {
    const MachineWindow& m = r.machines[i];
    const double capacity = static_cast<double>(m.cores) * window;
    double busy = 0;
    for (int c = 0; c < 3; ++c) {
      if (m.busy_ns[c] < 0) {
        Fail(failures, "cpu: machine %.0f has negative busy time in class %.0f",
             static_cast<double>(i), c);
      }
      busy += static_cast<double>(m.busy_ns[c]);
    }
    // Idle is the remainder of cores x window; it may not be negative.
    if (capacity - busy < 0) {
      Fail(failures, "cpu: machine busy %.0f ns exceeds cores x window %.0f ns", busy, capacity);
    }
    const double secondary_cap = static_cast<double>(r.secondary_core_limit) * window;
    if (static_cast<double>(m.busy_ns[1]) > secondary_cap) {
      Fail(failures, "cpu: secondary used %.0f ns, blind isolation leaves it %.0f ns",
           static_cast<double>(m.busy_ns[1]), secondary_cap);
    }
  }
  if (r.max_secondary_share > 1 + 1e-12) {
    Fail(failures, "cpu: a slice gave the secondary %.6f of its core limit (%.0f cores)",
         r.max_secondary_share, r.secondary_core_limit);
  }
}

void CheckCaps(const RoundResult& r, std::vector<std::string>* failures) {
  const double window_s = perfiso::ToSeconds(r.window);
  const double ml_limit = r.ml_cap_bps * window_s + r.ml_burst_bytes;
  for (int64_t bytes : r.ml_bytes) {
    if (static_cast<double>(bytes) > ml_limit) {
      Fail(failures, "caps: ML training read %.0f bytes, cap + burst allows %.0f",
           static_cast<double>(bytes), ml_limit);
    }
  }
  const double egress_limit = r.egress_cap_bps * window_s + r.egress_burst_bytes;
  for (int64_t bytes : r.egress_bytes) {
    if (static_cast<double>(bytes) > egress_limit) {
      Fail(failures, "caps: secondary egress %.0f bytes, cap + burst allows %.0f",
           static_cast<double>(bytes), egress_limit);
    }
  }
}

std::vector<std::string> CheckRound(const RoundResult& r) {
  std::vector<std::string> failures;
  CheckConservation(r, &failures);
  CheckLatency(r, &failures);
  CheckArrivalRate(r, &failures);
  CheckCpuAccounting(r, &failures);
  CheckCaps(r, &failures);
  return failures;
}

std::vector<std::string> CompareDeterministic(const RoundResult& a, const RoundResult& b) {
  std::vector<std::string> differences;
  if (a.sim.size() != b.sim.size() || a.digests.size() != b.digests.size()) {
    differences.push_back("different sets of outputs");
    return differences;
  }
  for (const auto& [name, value] : a.sim) {
    const auto it = b.sim.find(name);
    // Bit equality: a NaN would differ from itself, and none is produced.
    if (it == b.sim.end() || it->second != value) {
      char message[200];
      std::snprintf(message, sizeof(message), "%s: %.17g vs %.17g", name.c_str(), value,
                    it == b.sim.end() ? 0.0 : it->second);
      differences.push_back(message);
    }
  }
  for (const auto& [name, value] : a.digests) {
    const auto it = b.digests.find(name);
    if (it == b.digests.end() || it->second != value) {
      differences.push_back("digest." + name + " differs");
    }
  }
  return differences;
}

}  // namespace simbench
