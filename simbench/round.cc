#include "simbench/round.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>

#include "simbench/host_probe.h"
#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/obs/obs.h"
#include "src/sim/parallel.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/query_trace.h"

namespace simbench {

using perfiso::Cluster;
using perfiso::IndexNodeRig;
using perfiso::IndexServer;
using perfiso::LatencyRecorder;
using perfiso::NetClass;
using perfiso::ParallelSimulation;
using perfiso::QueryResult;
using perfiso::QueryWork;
using perfiso::Simulator;
using perfiso::TenantClass;
using perfiso::ToMillis;
using perfiso::ToSeconds;

namespace {

// Everything one round simulates. Members are destroyed in reverse order:
// the client and the rigs before the tracer they report to, and all of them
// before the engine whose queues hold their events.
struct World {
  std::unique_ptr<ParallelSimulation> psim;
  std::unique_ptr<perfiso::ObsContext> obs;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<IndexNodeRig> box;
  std::optional<perfiso::OpenLoopClient> client;
  std::vector<IndexNodeRig*> nodes;
};

// Per-owner scheduler counters of one index machine.
struct DiskSnapshot {
  int64_t ops[4] = {0, 0, 0, 0};
  int64_t bytes[4] = {0, 0, 0, 0};
};
constexpr const char* kDiskOwnerNames[4] = {"index_read", "log_write", "hdfs", "ml"};

DiskSnapshot SnapshotDisk(IndexNodeRig& node) {
  DiskSnapshot snap;
  const auto add = [&snap](int slot, const perfiso::IoScheduler::OwnerSchedStats& stats) {
    snap.ops[slot] += stats.completed;
    snap.bytes[slot] += stats.bytes_completed;
  };
  add(0, node.ssd_scheduler().Stats(perfiso::kIoOwnerIndexData));
  add(1, node.hdd_scheduler().Stats(perfiso::kIoOwnerIndexLog));
  add(2, node.hdd_scheduler().Stats(perfiso::kIoOwnerHdfsClient));
  add(2, node.hdd_scheduler().Stats(perfiso::kIoOwnerHdfsReplication));
  add(3, node.hdd_scheduler().Stats(perfiso::kIoOwnerMlTraining));
  return snap;
}

// Order-sensitive FNV-1a over the benchmark's own query samples.
uint64_t DigestQueries(const std::vector<QuerySample>& queries) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const QuerySample& q : queries) {
    mix(static_cast<uint64_t>(q.submit));
    mix(static_cast<uint64_t>(q.finish));
    mix(q.dropped ? 1 : 0);
  }
  return hash;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double NearestRank(std::vector<double>* values, double p) {
  if (values->empty()) {
    return 0;
  }
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*values)[rank - 1];
}

double ExpectedArrivals(const perfiso::LoadShapeSpec& load, double from_s, double to_s) {
  constexpr double kStep = 1e-4;
  const auto rate = [&load](double t) {
    return load.RateAt(static_cast<SimDuration>(std::llround(t * 1e9)));
  };
  const int64_t steps = std::max<int64_t>(1, std::llround((to_s - from_s) / kStep));
  const double h = (to_s - from_s) / static_cast<double>(steps);
  double sum = (rate(from_s) + rate(to_s)) / 2;
  for (int64_t i = 1; i < steps; ++i) {
    sum += rate(from_s + h * static_cast<double>(i));
  }
  return sum * h;
}

RoundResult RunRound(const WorkloadSpec& spec, const RoundOptions& options) {
  RoundResult r;
  r.workload = spec.name;
  r.warmup = spec.warmup;
  r.window = spec.measure;
  const bool traced = options.traced;
  const bool partitioned = spec.partitions >= 2;
  SpanRecorder& spans = r.spans;
  const double probe_before_setup = RunHostProbe();
  const auto round_start = HostClock::now();
  const int round_span = traced ? spans.Begin("round", SpanRecorder::kNoParent) : -1;
  const int setup_span = traced ? spans.Begin("setup", round_span) : -1;
  // Runs one set-up phase; returns its host seconds.
  const auto phase = [&](const char* name, auto&& fn) {
    const auto start = HostClock::now();
    fn();
    const auto end = HostClock::now();
    if (traced) {
      spans.Add(name, start, end, setup_span, -1);
    }
    return std::chrono::duration<double>(end - start).count();
  };

  World world;
  perfiso::ClusterOptions cluster_options;
  cluster_options.topology = spec.topology;
  cluster_options.node.seed = spec.seeds.node;
  cluster_options.seed = spec.seeds.node;  // the cluster draws per-node seeds from it

  r.build_s = phase("setup.build", [&] {
    ParallelSimulation::Options engine;
    engine.partitions = partitioned ? spec.partitions : 1;
    engine.window = partitioned ? cluster_options.fabric.base_latency : 0;
    engine.threads = partitioned ? (options.threads > 0 ? options.threads : spec.threads) : 1;
    world.psim = std::make_unique<ParallelSimulation>(engine);
    if (spec.cluster()) {
      world.cluster = partitioned
                          ? std::make_unique<Cluster>(world.psim.get(), cluster_options)
                          : std::make_unique<Cluster>(&world.psim->sim(0), cluster_options);
      world.cluster->ForEachIndexNode([&world](IndexNodeRig& node) {
        world.nodes.push_back(&node);
      });
    } else {
      perfiso::IndexNodeOptions node;
      node.seed = spec.seeds.node;
      world.box = std::make_unique<IndexNodeRig>(&world.psim->sim(0), node, "m0");
      world.nodes.push_back(world.box.get());
    }
  });
  ParallelSimulation& psim = *world.psim;
  Simulator& sim0 = psim.sim(0);
  const std::vector<IndexNodeRig*>& nodes = world.nodes;

  // The partitioned engine does not support the obs tracer; its traced round
  // records the benchmark's own spans only.
  if (traced && !partitioned) {
    phase("setup.obs", [&] {
      perfiso::ObsSpec obs;
      obs.enabled = true;
      obs.sampling = perfiso::TraceSampling::kSlowestK;
      obs.slowest_k = 128;
      world.obs = std::make_unique<perfiso::ObsContext>(obs);
      if (world.cluster != nullptr) {
        world.cluster->EnableTracing(&world.obs->tracer);
      } else {
        world.box->EnableTracing(&world.obs->tracer);
      }
    });
  }

  phase("setup.tenants", [&] {
    for (size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->StartTenants(spec.tenants);
      if (spec.net_bully) {
        perfiso::NetworkBully::Options net;
        net.block_bytes = 1024 * 1024;
        net.streams = 8;
        for (size_t p = 0; p < nodes.size(); ++p) {
          if (p != i) {
            net.peers.push_back(world.cluster->index_endpoint(static_cast<int>(p)));
          }
        }
        nodes[i]->StartNetworkBully(&world.cluster->fabric(),
                                    world.cluster->index_endpoint(static_cast<int>(i)), net);
      }
    }
  });

  r.perfiso_start_s = phase("setup.perfiso", [&] {
    for (IndexNodeRig* node : nodes) {
      const perfiso::Status status = node->StartPerfIso(spec.perfiso);
      if (!status.ok()) {
        std::fprintf(stderr, "simbench: PerfIso start failed: %s\n", status.ToString().c_str());
        std::exit(1);
      }
    }
  });

  std::vector<QueryWork> trace;
  r.trace_gen_s = phase("setup.trace_gen", [&] {
    perfiso::Rng rng(spec.seeds.trace);
    trace = perfiso::GenerateTrace(perfiso::TraceSpec{}, spec.trace_count, &rng);
  });

  // The benchmark's client callback: its own arrival count and submit time,
  // and its own done callback with the completion time.
  int current_slice_span = -1;
  const auto submit = [&](const QueryWork& work, SimTime at) {
    const size_t slot = r.queries.size();
    r.queries.push_back(QuerySample{at});
    if (at > spec.warmup) {
      ++r.arrivals_window;
    }
    IndexServer::QueryDoneFn done = [&r, &sim0, slot](const QueryResult& result) {
      QuerySample& q = r.queries[slot];
      q.finish = sim0.Now();
      q.reported_submit = result.submit_time;
      q.reported_ms = result.latency_ms;
      q.dropped = result.dropped;
    };
    const auto start = traced ? HostClock::now() : HostClock::time_point{};
    if (world.cluster != nullptr) {
      world.cluster->SubmitQuery(work, std::move(done));
    } else {
      world.box->server().SubmitQuery(work, std::move(done));
    }
    if (traced) {
      spans.Add("submit", start, HostClock::now(), current_slice_span,
                static_cast<int64_t>(slot));
    }
  };
  phase("setup.client", [&] {
    world.client.emplace(&sim0, std::move(trace), spec.load, perfiso::Rng(spec.seeds.client),
                         submit);
    world.client->Run(0, spec.end());
  });
  r.setup_s = SecondsSince(round_start);
  if (traced) {
    spans.End(setup_span);
  }
  r.setup_probe_rate = 2 * HostProbeSteps() / (probe_before_setup + RunHostProbe()) / 1e6;
  if (options.setup_only) {
    r.wall_s = SecondsSince(round_start);
    return r;
  }

  // --- The simulated day, in fixed slices ----------------------------------
  const int num_slices = static_cast<int>(spec.end() / spec.slice);
  r.first_window_slice = static_cast<int>(spec.warmup / spec.slice);
  const int limit = spec.perfiso.cpu_mode == perfiso::CpuIsolationMode::kBlindIsolation
                        ? nodes.front()->machine().NumCores() - spec.perfiso.blind.buffer_cores
                        : nodes.front()->machine().NumCores();
  r.secondary_core_limit = limit;
  std::vector<int64_t> secondary_prev(nodes.size(), 0);
  std::vector<IndexNodeRig::UtilizationSnapshot> util_at_warmup;
  std::vector<DiskSnapshot> disk_at_warmup;
  std::vector<double> progress_at_warmup;
  std::vector<size_t> sched_delay_at_warmup;
  int64_t bully_bytes_at_warmup = 0;
  const auto bully_bytes = [&nodes] {
    int64_t bytes = 0;
    for (IndexNodeRig* node : nodes) {
      if (perfiso::NetworkBully* bully = node->network_bully()) {
        bytes += bully->bytes_delivered();
      }
    }
    return bytes;
  };

  double probe_s = 0;
  const int run_span = traced ? spans.Begin("run", round_span) : -1;
  for (int s = 0; s < num_slices; ++s) {
    const SimTime until = static_cast<SimTime>(s + 1) * spec.slice;
    current_slice_span = traced ? spans.Begin("run_until", run_span) : -1;
    const auto start = HostClock::now();
    psim.RunUntil(until);
    const double host = SecondsSince(start);
    if (traced) {
      spans.End(current_slice_span);
    }
    r.slice_host_s.push_back(host);
    r.run_s += host;
    probe_s += RunHostProbe();
    r.slice_expected.push_back(
        ExpectedArrivals(spec.load, ToSeconds(until - spec.slice), ToSeconds(until)));

    // Blind isolation leaves the secondary at most `limit` cores at any
    // instant, so at most limit x slice of CPU per slice.
    for (size_t i = 0; i < nodes.size(); ++i) {
      perfiso::SimMachine& machine = nodes[i]->machine();
      machine.SettleAccounting();
      const int64_t busy = machine.metrics().busy_ns[static_cast<int>(TenantClass::kSecondary)];
      r.max_secondary_share =
          std::max(r.max_secondary_share, static_cast<double>(busy - secondary_prev[i]) /
                                              (static_cast<double>(limit) *
                                               static_cast<double>(spec.slice)));
      secondary_prev[i] = busy;
    }

    if (until == spec.warmup) {
      if (world.cluster != nullptr) {
        world.cluster->ResetStats();
      } else {
        world.box->server().ResetStats();
      }
      for (IndexNodeRig* node : nodes) {
        util_at_warmup.push_back(node->SnapshotUtilization());
        disk_at_warmup.push_back(SnapshotDisk(*node));
        progress_at_warmup.push_back(node->SecondaryProgress());
        sched_delay_at_warmup.push_back(
            node->machine().metrics().primary_sched_delay_us.Count());
      }
      bully_bytes_at_warmup = bully_bytes();
    }
  }
  if (traced) {
    spans.End(run_span);
  }
  r.run_probe_rate = num_slices * HostProbeSteps() / probe_s / 1e6;

  // --- Read-out: recorder merges and digests -------------------------------
  const int readout_span = traced ? spans.Begin("readout", round_span) : -1;
  const auto readout_start = HostClock::now();
  LatencyRecorder end_to_end;
  LatencyRecorder leaf;
  LatencyRecorder mla;
  LatencyRecorder flow;
  if (world.cluster != nullptr) {
    leaf = world.cluster->MergedLeafLatency();
    mla = world.cluster->MlaLatency();
    end_to_end = world.cluster->TlaLatency();
    flow = world.cluster->fabric().FlowLatencyMs(NetClass::kPrimary);
  } else {
    end_to_end = world.box->server().stats().latency_ms;
  }
  r.digests["end_to_end"] = end_to_end.Digest();
  r.digests["leaf"] = leaf.Digest();
  r.digests["mla"] = mla.Digest();
  r.digests["flow"] = flow.Digest();
  r.prog_p50_ms = end_to_end.P50();
  r.prog_p99_ms = end_to_end.P99();
  r.prog_samples = static_cast<int64_t>(end_to_end.Count());
  const double leaf_p99 = leaf.P99();
  const double mla_p99 = mla.P99();
  const double flow_p99 = flow.P99();
  r.readout_s = SecondsSince(readout_start);
  if (traced) {
    spans.End(readout_span);
  }
  r.wall_s = SecondsSince(round_start);
  if (traced) {
    spans.End(round_span);
  }

  // --- Conservation counters ------------------------------------------------
  r.client_submitted = static_cast<int64_t>(world.client->submitted());
  if (world.cluster != nullptr) {
    r.prog_submitted = world.cluster->queries_submitted();
    r.prog_completed = world.cluster->queries_completed();
    r.prog_failed = world.cluster->queries_failed();
    r.prog_inflight = world.cluster->queries_inflight();
    r.prog_inflight_at_reset = -1;  // the cluster does not expose it
  } else {
    const IndexServer& server = world.box->server();
    r.prog_submitted = server.stats().submitted;
    r.prog_completed = server.stats().completed;
    r.prog_failed = server.stats().TotalDropped();
    r.prog_inflight = server.inflight();
    r.prog_inflight_at_reset = server.inflight_at_reset();
  }
  r.expected_window = ExpectedArrivals(spec.load, ToSeconds(spec.warmup), ToSeconds(spec.end()));
  r.expected_total = ExpectedArrivals(spec.load, 0, ToSeconds(spec.end()));

  // --- CPU accounting and caps over the window ----------------------------
  const double window_s = ToSeconds(spec.measure);
  const double machines = static_cast<double>(nodes.size());
  double util_sum[3] = {0, 0, 0};  // primary, secondary, OS
  double secondary_core_s = 0;
  DiskSnapshot disk_window;
  std::vector<double> sched_delay;
  for (size_t i = 0; i < nodes.size(); ++i) {
    IndexNodeRig& node = *nodes[i];
    node.machine().SettleAccounting();
    MachineWindow mw;
    mw.cores = node.machine().NumCores();
    for (int c = 0; c < 3; ++c) {
      mw.busy_ns[c] = node.machine().metrics().busy_ns[c] - util_at_warmup[i].busy[c];
    }
    r.machines.push_back(mw);
    for (int c = 0; c < 3; ++c) {
      util_sum[c] += node.UtilizationSince(util_at_warmup[i], static_cast<TenantClass>(c));
    }
    secondary_core_s += node.SecondaryProgress() - progress_at_warmup[i];
    const DiskSnapshot now = SnapshotDisk(node);
    for (int o = 0; o < 4; ++o) {
      disk_window.ops[o] += now.ops[o] - disk_at_warmup[i].ops[o];
      disk_window.bytes[o] += now.bytes[o] - disk_at_warmup[i].bytes[o];
    }
    if (spec.ml_cap_bps > 0) {
      r.ml_bytes.push_back(now.bytes[3] - disk_at_warmup[i].bytes[3]);
    }
    if (spec.perfiso.egress_rate_cap_bps > 0) {
      // Cluster::ResetStats cleared the NIC counters at the warm-up.
      r.egress_bytes.push_back(world.cluster->fabric()
                                   .netdev(world.cluster->index_endpoint(static_cast<int>(i)))
                                   .tx()
                                   .stats()
                                   .bytes_serialized[static_cast<int>(NetClass::kSecondary)]);
    }
    const auto& delays = node.machine().metrics().primary_sched_delay_us.samples();
    sched_delay.insert(sched_delay.end(),
                       delays.begin() + static_cast<std::ptrdiff_t>(sched_delay_at_warmup[i]),
                       delays.end());
  }
  if (spec.ml_cap_bps > 0) {
    r.ml_cap_bps = spec.ml_cap_bps;
    r.ml_burst_bytes = spec.ml_cap_bps;  // IoScheduler: one second's allowance
  }
  if (spec.perfiso.egress_rate_cap_bps > 0) {
    r.egress_cap_bps = spec.perfiso.egress_rate_cap_bps;
    // SimPlatform's bucket (250 ms of credit, at most 4 MB) plus the one
    // 64 KB chunk that may be on the wire when the window opens.
    r.egress_burst_bytes = std::min(r.egress_cap_bps / 4, 4.0 * 1024 * 1024) +
                           static_cast<double>(cluster_options.fabric.chunk_bytes);
  }

  // --- Deterministic outputs --------------------------------------------------
  int64_t completed_total = 0;
  for (const QuerySample& q : r.queries) {
    completed_total += (q.finish >= 0 && !q.dropped) ? 1 : 0;
  }
  r.digests["queries"] = DigestQueries(r.queries);
  const double arrivals_total = static_cast<double>(r.queries.size());
  const double arrivals_window = static_cast<double>(r.arrivals_window);
  std::map<std::string, double>& d = r.sim;
  d["query.p50_ms"] = r.prog_p50_ms;
  d["query.p99_ms"] = r.prog_p99_ms;
  d["query.samples"] = static_cast<double>(r.prog_samples);
  d["query.completed_total"] = static_cast<double>(completed_total);
  d["secondary_util"] = util_sum[1] / machines;
  d["cpu.primary_util"] = util_sum[0] / machines;
  d["cpu.os_util"] = util_sum[2] / machines;
  d["cpu.total_util"] = (util_sum[0] + util_sum[1] + util_sum[2]) / machines;

  uint64_t events = 0;
  uint64_t cancelled = 0;
  uint64_t cascades = 0;
  uint64_t overflow = 0;
  uint64_t slabs = 0;
  for (int p = 0; p < psim.num_partitions(); ++p) {
    const Simulator::Stats& stats = psim.sim(p).stats();
    events += stats.events_executed;
    cancelled += stats.events_cancelled;
    cascades += stats.wheel_cascades;
    overflow += stats.overflow_pulls;
    slabs += stats.slab_allocs;
  }
  d["sim.engine.events"] = static_cast<double>(events);
  d["sim.engine.events_per_query"] = Ratio(static_cast<double>(events), arrivals_total);
  d["sim.engine.cancelled"] = static_cast<double>(cancelled);
  d["sim.engine.wheel_cascades"] = static_cast<double>(cascades);
  d["sim.engine.overflow_pulls"] = static_cast<double>(overflow);
  d["sim.engine.slab_allocs"] = static_cast<double>(slabs);

  double spawned = 0;
  double dispatches = 0;
  double preemptions = 0;
  double steals = 0;
  double polls = 0;
  double affinity_updates = 0;
  double io_polls = 0;
  double io_adjustments = 0;
  double hedges = 0;
  double log_stalls = 0;
  double leaf_completed = 0;
  for (IndexNodeRig* node : nodes) {
    const perfiso::SimMachine::Metrics& m = node->machine().metrics();
    spawned += static_cast<double>(m.threads_spawned);
    dispatches += static_cast<double>(m.dispatches);
    preemptions += static_cast<double>(m.preemptions);
    steals += static_cast<double>(m.steals);
    const perfiso::PerfIsoController::Stats& ps = node->perfiso()->stats();
    polls += static_cast<double>(ps.polls);
    affinity_updates += static_cast<double>(ps.affinity_updates);
    io_polls += static_cast<double>(ps.io_polls);
    if (const perfiso::IoThrottler* throttler = node->perfiso()->io_throttler()) {
      io_adjustments += static_cast<double>(throttler->adjustments());
    }
    const IndexServer::Stats& ss = node->server().stats();
    hedges += static_cast<double>(ss.hedges_issued);
    log_stalls += static_cast<double>(ss.log_stalls);
    leaf_completed += static_cast<double>(ss.completed);
  }
  d["sim.machine.threads_spawned"] = spawned;
  d["sim.machine.dispatches"] = dispatches;
  d["sim.machine.preemptions"] = preemptions;
  d["sim.machine.steals"] = steals;
  d["sim.machine.threads_spawned_per_query"] = Ratio(spawned, arrivals_total);
  d["sim.machine.dispatches_per_query"] = Ratio(dispatches, arrivals_total);
  d["sim.machine.preemptions_per_query"] = Ratio(preemptions, arrivals_total);
  d["sim.machine.steals_per_query"] = Ratio(steals, arrivals_total);
  d["sim.machine.primary_sched_delay_us.p99"] = NearestRank(&sched_delay, 99);

  const ParallelSimulation::Stats& ps = psim.stats();
  d["sim.parallel.windows"] = static_cast<double>(ps.windows_run);
  d["sim.parallel.messages"] = static_cast<double>(ps.messages_posted);
  d["sim.parallel.messages_per_window"] =
      Ratio(static_cast<double>(ps.messages_posted), static_cast<double>(ps.windows_run));

  d["perfiso.polls"] = polls;
  d["perfiso.polls_per_leaf_sim_s"] = Ratio(polls, machines * ToSeconds(spec.end()));
  d["perfiso.affinity_updates"] = affinity_updates;
  d["perfiso.useful_poll_ratio"] = Ratio(affinity_updates, polls);
  d["perfiso.io_polls"] = io_polls;
  d["perfiso.io_adjustments"] = io_adjustments;

  for (int o = 0; o < 4; ++o) {
    const std::string prefix = std::string("disk.") + kDiskOwnerNames[o];
    d[prefix + ".ops"] = static_cast<double>(disk_window.ops[o]);
    d[prefix + ".bytes"] = static_cast<double>(disk_window.bytes[o]);
  }
  d["disk.ml_mb_per_s"] = Ratio(static_cast<double>(disk_window.bytes[3]) / 1e6,
                                machines * window_s);

  double flows_primary = 0;
  double flows_secondary = 0;
  double chunks = 0;
  double secondary_egress = 0;
  if (world.cluster != nullptr) {
    perfiso::Fabric& fabric = world.cluster->fabric();
    for (int e = 0; e < fabric.num_endpoints(); ++e) {
      const perfiso::Fabric::EndpointStats& es = fabric.endpoint_stats(e);
      flows_primary += static_cast<double>(es.flows_sent[0]);
      flows_secondary += static_cast<double>(es.flows_sent[1]);
      chunks += static_cast<double>(fabric.netdev(e).tx().stats().chunks +
                                    fabric.netdev(e).rx().stats().chunks);
    }
    for (int k = 0; k < fabric.num_racks(); ++k) {
      chunks += static_cast<double>(fabric.rack_uplink(k).stats().chunks +
                                    fabric.rack_downlink(k).stats().chunks);
    }
    secondary_egress = static_cast<double>(world.cluster->SecondaryEgressBytes());
  }
  d["net.flows.primary"] = flows_primary;
  d["net.flows.secondary"] = flows_secondary;
  d["net.flows_per_query"] = Ratio(flows_primary + flows_secondary, arrivals_window);
  d["net.link_chunks"] = chunks;
  d["net.secondary_egress_mb_per_s_per_machine"] =
      Ratio(secondary_egress / 1e6, machines * window_s);
  d["net.flow_p99_ms.primary"] = flow_p99;

  d["indexserve.completed"] = leaf_completed;
  d["indexserve.hedges"] = hedges;
  d["indexserve.log_stalls"] = log_stalls;
  d["cluster.leaf_p99_ms"] = leaf_p99;
  d["cluster.mla_p99_ms"] = mla_p99;

  d["workload.arrivals"] = arrivals_window;
  d["workload.secondary_core_s"] = secondary_core_s;
  d["workload.net_bully_mb"] = static_cast<double>(bully_bytes() - bully_bytes_at_warmup) / 1e6;

  // P99-cohort tail attribution of the queries that began in the window,
  // from the program's tracer (sequential engines, traced rounds only).
  double tail[6] = {0, 0, 0, 0, 0, 0};
  if (world.obs != nullptr) {
    std::vector<const perfiso::TraceSummary*> window;
    std::vector<double> latencies;
    for (const perfiso::TraceSummary& summary : world.obs->tracer.summaries()) {
      if (!summary.dropped && summary.begin > spec.warmup) {
        window.push_back(&summary);
        latencies.push_back(summary.latency_ms);
      }
    }
    const double p99 = NearestRank(&latencies, 99);
    double cohort = 0;
    for (const perfiso::TraceSummary* summary : window) {
      if (summary->latency_ms < p99) {
        continue;
      }
      const perfiso::TailAttribution& a = summary->attribution;
      const double parts[6] = {a.cpu_wait_ms,      a.disk_queue_ms, a.net_transit_ms,
                               a.serialization_ms, a.service_ms,    a.other_ms};
      for (int c = 0; c < 6; ++c) {
        tail[c] += parts[c];
      }
      cohort += 1;
    }
    for (double& part : tail) {
      part = Ratio(part, cohort);
    }
  }
  r.tail_ms.assign(std::begin(tail), std::end(tail));

  // --- Host-time per-layer figures -------------------------------------------
  std::map<std::string, double>& h = r.host;
  h["sim.engine.run_s"] = r.run_s;
  h["sim.engine.ns_per_event"] = Ratio(r.run_s * 1e9, static_cast<double>(events));
  {
    // Lowest- and highest-load slices of the measured window (first on ties).
    int trough = r.first_window_slice;
    int peak = r.first_window_slice;
    for (int s = r.first_window_slice; s < num_slices; ++s) {
      if (r.slice_expected[static_cast<size_t>(s)] < r.slice_expected[static_cast<size_t>(trough)]) {
        trough = s;
      }
      if (r.slice_expected[static_cast<size_t>(s)] > r.slice_expected[static_cast<size_t>(peak)]) {
        peak = s;
      }
    }
    const double slice_s = ToSeconds(spec.slice);
    h["sim.engine.host_s_per_sim_s.trough"] = r.slice_host_s[static_cast<size_t>(trough)] / slice_s;
    h["sim.engine.host_s_per_sim_s.peak"] = r.slice_host_s[static_cast<size_t>(peak)] / slice_s;
  }
  h["sim.parallel.host_us_per_window"] =
      Ratio(r.run_s * 1e6, static_cast<double>(ps.windows_run));
  h["perfiso.start_s"] = r.perfiso_start_s;
  h["cluster.build_s"] = world.cluster != nullptr ? r.build_s : 0;
  h["cluster.readout_s"] = world.cluster != nullptr ? r.readout_s : 0;
  h["workload.trace_gen_s"] = r.trace_gen_s;
  if (traced) {
    r.submit_calls = spans.Count("submit");
    r.submit_host_s = spans.TotalSeconds("submit");
    const double submit_ns = Ratio(r.submit_host_s * 1e9, static_cast<double>(r.submit_calls));
    h["cluster.submit_ns"] = world.cluster != nullptr ? submit_ns : 0;
    h["indexserve.submit_ns"] = world.cluster != nullptr ? 0 : submit_ns;
  }
  return r;
}

}  // namespace simbench
