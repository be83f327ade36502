// One round of a workload: set up the topology, tenants, PerfIso, the query
// trace and the open-loop client; run the simulated day in fixed slices; read
// every statistic out. The round drives the modules' public functions itself
// and times each call from outside the program.
#ifndef SIMBENCH_ROUND_H_
#define SIMBENCH_ROUND_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simbench/spans.h"
#include "simbench/workloads.h"

namespace simbench {

struct RoundOptions {
  // Records a span around every call into the program and, on the
  // sequential engine, turns on the program's src/obs tracer (slowest-k).
  bool traced = false;
  // Stops after set-up: the round builds everything and tears it down.
  bool setup_only = false;
  // Worker threads of the partitioned engine; 0 keeps the workload's count.
  int threads = 0;
};

// One query as the benchmark saw it: submitted from its own client callback,
// completed through its own done callback.
struct QuerySample {
  SimTime submit = 0;       // simulated time of the benchmark's submit
  SimTime finish = -1;      // simulated time the done callback ran; -1 in flight
  SimTime reported_submit = 0;
  double reported_ms = 0;   // QueryResult::latency_ms
  bool dropped = false;
};

// Per index machine, over the measured window.
struct MachineWindow {
  int cores = 0;
  int64_t busy_ns[3] = {0, 0, 0};  // primary, secondary, OS
};

struct RoundResult {
  std::string workload;
  SimDuration warmup = 0;
  SimDuration window = 0;  // measured window (sim ns)

  // --- Host time (s) ---------------------------------------------------------
  double setup_s = 0;        // before the first simulated event
  double build_s = 0;        // engine + topology constructors
  double perfiso_start_s = 0;
  double trace_gen_s = 0;    // GenerateTrace
  double run_s = 0;          // RunUntil calls
  double readout_s = 0;      // recorder merges and digests
  double wall_s = 0;         // the whole round, teardown excluded
  std::vector<double> slice_host_s;         // per RunUntil slice
  std::vector<double> slice_expected;       // expected arrivals per slice
  int first_window_slice = 0;               // index of the first measured slice
  double submit_host_s = 0;  // traced rounds: time inside SubmitQuery
  int64_t submit_calls = 0;
  // Host-speed probe (host_probe.h): around set-up, and after every slice.
  double setup_probe_rate = 0;  // million probe steps per second
  double run_probe_rate = 0;

  // --- The benchmark's own view of the queries -------------------------------
  std::vector<QuerySample> queries;
  int64_t arrivals_window = 0;      // submits after the warm-up
  double expected_window = 0;       // integral of RateAt over the window
  double expected_total = 0;        // ... over warm-up + window
  int64_t client_submitted = 0;     // OpenLoopClient::submitted()

  // --- The program's view ----------------------------------------------------
  int64_t prog_submitted = 0;   // since the warm-up reset
  int64_t prog_completed = 0;
  int64_t prog_failed = 0;
  int64_t prog_inflight_at_reset = 0;
  int64_t prog_inflight = 0;    // as the program reports it
  double prog_p50_ms = 0;       // the end-to-end recorder (TLA, or the box)
  double prog_p99_ms = 0;
  int64_t prog_samples = 0;

  // --- CPU accounting ---------------------------------------------------------
  std::vector<MachineWindow> machines;
  int secondary_core_limit = 0;  // cores blind isolation leaves the secondary
  // Largest share of that limit any machine's secondary used in any slice.
  double max_secondary_share = 0;

  // --- Caps (0 = workload has none) -------------------------------------------
  double ml_cap_bps = 0;
  double ml_burst_bytes = 0;
  std::vector<int64_t> ml_bytes;       // per index machine, window
  double egress_cap_bps = 0;
  double egress_burst_bytes = 0;
  std::vector<int64_t> egress_bytes;   // secondary NIC TX bytes, window

  // Deterministic outputs: simulated statistics, digests and per-layer
  // counts. A change that only speeds the simulator up leaves them equal.
  std::map<std::string, double> sim;
  std::map<std::string, uint64_t> digests;
  // P99-cohort tail attribution (ms): cpu_wait, disk_queue, net_transit,
  // serialization, service, other. Zero unless the obs tracer ran.
  std::vector<double> tail_ms;
  // Host-time per-layer figures of this round.
  std::map<std::string, double> host;

  // Spans of a traced round.
  SpanRecorder spans;
};

RoundResult RunRound(const WorkloadSpec& spec, const RoundOptions& options);

// Nearest-rank percentile (p in (0, 100]) of `values`, sorted in place; 0
// when empty.
double NearestRank(std::vector<double>* values, double p);

// Integral of the load shape's rate over [from, to) (seconds relative to the
// client's start), by the trapezoid rule on a 100 us grid.
double ExpectedArrivals(const perfiso::LoadShapeSpec& load, double from_s, double to_s);

}  // namespace simbench

#endif  // SIMBENCH_ROUND_H_
