// simbench: the simulator's benchmark.
//
//   simbench --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//       Runs whole rounds of workload W for at least S host seconds, checks
//       every round's outputs, and prints one JSON line last: the end-to-end
//       metrics (--trace 0) or the per-layer metrics (--trace 1).
//   simbench --compare --workload W --seed N
//       Prints every deterministic output of one round — simulated
//       statistics, latency digests, per-layer counts — one per line, for
//       diffing two commits exactly.
//   simbench --describe
//       Prints the metric tables as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "simbench/checks.h"
#include "simbench/host_probe.h"
#include "simbench/round.h"
#include "simbench/workloads.h"

namespace simbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// Reported with --trace 0.
const std::vector<MetricDef> kEndToEnd = {
    {"sim_s_per_wall_s", "s/s", "higher"},
    {"queries_per_wall_s", "queries/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mib", "MiB", "lower"},
    {"query_p50_ms", "ms", "lower"},
    {"query_p99_ms", "ms", "lower"},
    {"query_samples", "count", "higher"},
    {"secondary_util", "fraction", "higher"},
};

// Reported with --trace 1. Deterministic counts come from the round's
// simulated outputs; host times as noted in main's trace branch.
const std::vector<MetricDef> kPerLayer = {
    {"sim.engine.events", "count", "lower"},
    {"sim.engine.events_per_query", "events/query", "lower"},
    {"sim.engine.cancelled", "count", "lower"},
    {"sim.engine.run_s", "s", "lower"},
    {"sim.engine.ns_per_event", "ns", "lower"},
    {"sim.engine.wheel_cascades", "count", "lower"},
    {"sim.engine.overflow_pulls", "count", "lower"},
    {"sim.engine.slab_allocs", "count", "lower"},
    {"sim.engine.host_s_per_sim_s.trough", "s/s", "lower"},
    {"sim.engine.host_s_per_sim_s.peak", "s/s", "lower"},
    {"sim.machine.threads_spawned", "count", "lower"},
    {"sim.machine.dispatches", "count", "lower"},
    {"sim.machine.preemptions", "count", "lower"},
    {"sim.machine.steals", "count", "lower"},
    {"sim.machine.threads_spawned_per_query", "count/query", "lower"},
    {"sim.machine.dispatches_per_query", "count/query", "lower"},
    {"sim.machine.preemptions_per_query", "count/query", "lower"},
    {"sim.machine.steals_per_query", "count/query", "lower"},
    {"sim.machine.primary_sched_delay_us.p99", "us", "lower"},
    {"sim.parallel.windows", "count", "lower"},
    {"sim.parallel.messages", "count", "lower"},
    {"sim.parallel.messages_per_window", "count/window", "higher"},
    {"sim.parallel.host_us_per_window", "us", "lower"},
    {"perfiso.polls", "count", "lower"},
    {"perfiso.polls_per_leaf_sim_s", "1/s", "lower"},
    {"perfiso.affinity_updates", "count", "lower"},
    {"perfiso.useful_poll_ratio", "ratio", "higher"},
    {"perfiso.io_polls", "count", "lower"},
    {"perfiso.io_adjustments", "count", "lower"},
    {"perfiso.start_s", "s", "lower"},
    {"disk.index_read.ops", "count", "higher"},
    {"disk.index_read.bytes", "B", "higher"},
    {"disk.log_write.ops", "count", "higher"},
    {"disk.log_write.bytes", "B", "higher"},
    {"disk.hdfs.ops", "count", "higher"},
    {"disk.hdfs.bytes", "B", "higher"},
    {"disk.ml.ops", "count", "higher"},
    {"disk.ml.bytes", "B", "higher"},
    {"disk.ml_mb_per_s", "MB/s", "higher"},
    {"net.flows.primary", "count", "lower"},
    {"net.flows.secondary", "count", "higher"},
    {"net.flows_per_query", "count/query", "lower"},
    {"net.link_chunks", "count", "lower"},
    {"net.secondary_egress_mb_per_s_per_machine", "MB/s", "higher"},
    {"net.flow_p99_ms.primary", "ms", "lower"},
    {"indexserve.completed", "count", "higher"},
    {"indexserve.hedges", "count", "lower"},
    {"indexserve.log_stalls", "count", "lower"},
    {"indexserve.submit_ns", "ns", "lower"},
    {"cluster.leaf_p99_ms", "ms", "lower"},
    {"cluster.mla_p99_ms", "ms", "lower"},
    {"cluster.build_s", "s", "lower"},
    {"cluster.submit_ns", "ns", "lower"},
    {"cluster.readout_s", "s", "lower"},
    {"workload.arrivals", "count", "higher"},
    {"workload.trace_gen_s", "s", "lower"},
    {"workload.secondary_core_s", "core-s", "higher"},
    {"workload.net_bully_mb", "MB", "higher"},
    {"obs.tail.cpu_wait_ms", "ms", "lower"},
    {"obs.tail.disk_queue_ms", "ms", "lower"},
    {"obs.tail.net_transit_ms", "ms", "lower"},
    {"obs.tail.serialization_ms", "ms", "lower"},
    {"obs.tail.service_ms", "ms", "lower"},
    {"obs.tail.other_ms", "ms", "lower"},
    {"obs.overhead_ratio", "ratio", "lower"},
    {"host.probe_rate", "Msteps/s", "higher"},
};

// Host-time per-layer figures taken from the untraced round of each pair:
// the traced round also runs the program's obs tracer inside RunUntil.
const char* const kEngineHostMetrics[] = {
    "sim.engine.run_s",
    "sim.engine.ns_per_event",
    "sim.engine.host_s_per_sim_s.trough",
    "sim.engine.host_s_per_sim_s.peak",
    "sim.parallel.host_us_per_window",
};

// Set-up is timed at least kMinSetups times per run, and for up to
// kSetupBudgetS seconds of extra set-ups when it is cheap.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  int seconds = -1;
  int trace = -1;
  std::string trace_dir;
  bool compare = false;
  bool describe = false;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "simbench: %s\n"
               "usage: simbench --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]\n"
               "       simbench --compare --workload W --seed N\n"
               "       simbench --describe\n",
               message);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--compare") {
      args->compare = true;
      continue;
    }
    if (flag == "--describe") {
      args->describe = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      errno = 0;
      char* end = nullptr;
      args->seed = std::strtoull(value, &end, 10);
      if (errno != 0 || end == value || *end != '\0' || value[0] == '-') {
        return false;
      }
      args->have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 3600, &number)) {
        return false;
      }
      args->seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &number)) {
        return false;
      }
      args->trace = static_cast<int>(number);
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void PrintDescribe() {
  const auto print = [](const char* key, const std::vector<MetricDef>& metrics) {
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].unit, metrics[i].better);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", WorkloadNames()[i].c_str());
  }
  std::printf("], ");
  print("end_to_end", kEndToEnd);
  std::printf(", ");
  print("per_layer", kPerLayer);
  std::printf("}\n");
}

// Reports check failures of one round on stderr; returns whether it passed.
bool ReportChecks(const char* what, const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "simbench: %s: %s\n", what, failure.c_str());
  }
  return failures.empty();
}

int64_t Dropped(const RoundResult& r) {
  int64_t dropped = 0;
  for (const QuerySample& q : r.queries) {
    dropped += (q.finish >= 0 && q.dropped) ? 1 : 0;
  }
  return dropped;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<MetricDef>& defs, const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it != values.end() && std::isfinite(it->second) ? it->second : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, value, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int RunCompare(const WorkloadSpec& spec) {
  const RoundResult r = RunRound(spec, RoundOptions{});
  const bool ok = ReportChecks("compare", CheckRound(r));
  std::printf("workload %s\n", spec.name.c_str());
  for (const auto& [name, value] : r.sim) {
    std::printf("%s %.17g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : r.digests) {
    std::printf("digest.%s %016" PRIx64 "\n", name.c_str(), value);
  }
  std::printf("checks %s\n", ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

int RunUntraced(const WorkloadSpec& spec, int seconds) {
  std::vector<double> setup_s;
  const auto setup_start = HostClock::now();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (static_cast<int>(setup_s.size()) < kMaxSetups &&
          SecondsSince(setup_start) < kSetupBudgetS)) {
    RoundOptions options;
    options.setup_only = true;
    const RoundResult r = RunRound(spec, options);
    setup_s.push_back(r.setup_s * r.setup_probe_rate / kReferenceProbeRate);
  }

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> raw_sim_rate;
  std::vector<double> sim_rate;
  std::vector<double> query_rate;
  RoundResult first;
  double peak_rss_mib = 0;
  const auto start = HostClock::now();
  int rounds = 0;
  do {
    RoundResult r = RunRound(spec, RoundOptions{});
    correct &= ReportChecks("checks", CheckRound(r));
    attempted += static_cast<int64_t>(r.queries.size());
    failed += Dropped(r);
    setup_s.push_back(r.setup_s * r.setup_probe_rate / kReferenceProbeRate);
    // Host time scaled to the reference host speed (host_probe.h).
    const double run_s = r.run_s * r.run_probe_rate / kReferenceProbeRate;
    raw_sim_rate.push_back(perfiso::ToSeconds(spec.end()) / r.run_s);
    sim_rate.push_back(perfiso::ToSeconds(spec.end()) / run_s);
    query_rate.push_back(r.sim.at("query.completed_total") / run_s);
    if (rounds == 0) {
      // Later rounds reuse freed memory unevenly; the peak after one round
      // does not depend on how many rounds the host's speed allowed.
      peak_rss_mib = PeakRssMib();
      first = std::move(r);
    } else {
      // Same inputs, same outputs: every round must reproduce the first.
      correct &= ReportChecks("determinism", CompareDeterministic(first, r));
    }
    ++rounds;
  } while (SecondsSince(start) < seconds);

  std::map<std::string, double> values;
  values["sim_s_per_wall_s"] = Median(sim_rate);
  values["queries_per_wall_s"] = Median(query_rate);
  values["setup_s"] = Median(setup_s);
  values["peak_rss_mib"] = peak_rss_mib;
  values["query_p50_ms"] = first.sim.at("query.p50_ms");
  values["query_p99_ms"] = first.sim.at("query.p99_ms");
  values["query_samples"] = first.sim.at("query.samples");
  values["secondary_util"] = first.sim.at("secondary_util");
  std::fprintf(stderr,
               "simbench: %s: %d rounds, %zu set-ups; %.3f sim-s/wall-s at reference speed "
               "(rounds %.3f..%.3f; unscaled %.3f..%.3f), p99 %.3f ms over %.0f samples, "
               "secondary %.4f of cores\n",
               spec.name.c_str(), rounds, setup_s.size(), values["sim_s_per_wall_s"],
               *std::min_element(sim_rate.begin(), sim_rate.end()),
               *std::max_element(sim_rate.begin(), sim_rate.end()),
               *std::min_element(raw_sim_rate.begin(), raw_sim_rate.end()),
               *std::max_element(raw_sim_rate.begin(), raw_sim_rate.end()), values["query_p99_ms"],
               values["query_samples"], values["secondary_util"]);
  PrintResult(correct, attempted, failed, kEndToEnd, values);
  return correct ? 0 : 1;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), file) == content.size();
  return std::fclose(file) == 0 && ok;
}

int RunTraced(const WorkloadSpec& spec, int seconds, uint64_t seed, const std::string& trace_dir) {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::vector<double>> host;
  std::vector<double> overhead;
  RoundResult untraced_first;
  RoundResult traced_last;
  const auto start = HostClock::now();
  int pairs = 0;
  do {
    RoundResult untraced = RunRound(spec, RoundOptions{});
    RoundOptions options;
    options.traced = true;
    RoundResult traced = RunRound(spec, options);
    correct &= ReportChecks("checks", CheckRound(untraced));
    correct &= ReportChecks("checks (traced)", CheckRound(traced));
    // The obs-on == obs-off oracle: tracing must not change a single output.
    correct &= ReportChecks("traced vs untraced", CompareDeterministic(untraced, traced));
    for (const RoundResult* r : {&untraced, &traced}) {
      attempted += static_cast<int64_t>(r->queries.size());
      failed += Dropped(*r);
    }
    for (const auto& [name, value] : traced.host) {
      host[name].push_back(value);
    }
    for (const char* name : kEngineHostMetrics) {
      host[name].back() = untraced.host.at(name);
    }
    host["host.probe_rate"].push_back(untraced.run_probe_rate);
    overhead.push_back(traced.wall_s / untraced.wall_s);
    if (pairs == 0) {
      untraced_first = std::move(untraced);
    }
    traced_last = std::move(traced);
    ++pairs;
  } while (SecondsSince(start) < seconds);

  std::map<std::string, double> values = untraced_first.sim;
  for (const auto& [name, samples] : host) {
    values[name] = Median(samples);
  }
  values["obs.overhead_ratio"] = Median(overhead);
  static const char* const kTail[6] = {"obs.tail.cpu_wait_ms",      "obs.tail.disk_queue_ms",
                                       "obs.tail.net_transit_ms",   "obs.tail.serialization_ms",
                                       "obs.tail.service_ms",       "obs.tail.other_ms"};
  for (int c = 0; c < 6; ++c) {
    values[kTail[c]] = traced_last.tail_ms[static_cast<size_t>(c)];
  }
  if (!trace_dir.empty()) {
    const std::string path =
        trace_dir + "/" + spec.name + "-seed" + std::to_string(seed) + ".json";
    if (WriteFile(path, traced_last.spans.ToChromeTrace("simbench " + spec.name))) {
      std::fprintf(stderr, "simbench: wrote %zu spans to %s\n",
                   traced_last.spans.spans().size(), path.c_str());
    } else {
      std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
      correct = false;
    }
  }
  std::fprintf(stderr, "simbench: %s: %d traced/untraced pairs, overhead %.3fx\n",
               spec.name.c_str(), pairs, values["obs.overhead_ratio"]);
  PrintResult(correct, attempted, failed, kPerLayer, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  using namespace simbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage("bad arguments");
  }
  if (args.describe) {
    PrintDescribe();
    return 0;
  }
  if (args.workload.empty() || !args.have_seed) {
    return Usage("--workload and --seed are required");
  }
  const std::optional<WorkloadSpec> spec = MakeWorkload(args.workload, args.seed);
  if (!spec.has_value()) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.compare) {
    return RunCompare(*spec);
  }
  if (args.seconds < 0 || args.trace < 0) {
    return Usage("--seconds and --trace are required");
  }
  return args.trace == 1 ? RunTraced(*spec, args.seconds, args.seed, args.trace_dir)
                         : RunUntraced(*spec, args.seconds);
}
