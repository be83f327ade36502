// The benchmark's four workloads, fixed here so that two commits run exactly
// the same inputs. A workload is a topology, a load shape, a tenant mix and a
// PerfIso configuration; the benchmark seed only picks the query trace, the
// arrival process and the per-node seeds (DeriveSeeds).
#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/perfiso/perfiso_config.h"
#include "src/util/sim_time.h"
#include "src/workload/load_shape.h"
#include "src/workload/scenario.h"

namespace simbench {

using perfiso::SimDuration;
using perfiso::SimTime;

// Seeds handed to the program, all derived from the one benchmark seed.
struct Seeds {
  uint64_t trace = 0;   // GenerateTrace
  uint64_t client = 0;  // OpenLoopClient arrival process
  uint64_t node = 0;    // IndexNodeOptions::seed / ClusterOptions::seed
};

// SplitMix64 over the benchmark seed: distinct seeds give unrelated streams.
Seeds DeriveSeeds(uint64_t seed);

// Worker threads of the partitioned engine (cluster-1k-day-pdes). Fixed, so
// that the benchmark does not scale with the host. One thread runs the
// windows and mailboxes but not the barriers: on the 4-vCPU reference host,
// 2 and 4 threads ran 0.30-0.67 simulated s per host s from run to run (two
// std::barrier round trips per 120 us window), too unsteady to bound, while
// 1 thread held within a few percent (README.md).
inline constexpr int kPdesThreads = 1;
// Partitions of the partitioned engine: the TLA shard plus 20 row shards, as
// in bench/fig_cluster_scale.cc.
inline constexpr int kPdesPartitions = 21;

struct WorkloadSpec {
  std::string name;
  // Cluster topology; columns == 0 is the single IndexServe box.
  perfiso::ClusterTopology topology{0, 0, 0};
  // >= 2 runs the cluster on the partitioned engine.
  int partitions = 0;
  int threads = 1;

  perfiso::LoadShapeSpec load;
  SimDuration warmup = perfiso::kSecond;
  SimDuration measure = perfiso::kSecond;
  // RunUntil granularity; warmup and measure are whole multiples of it.
  SimDuration slice = perfiso::kSecond;

  perfiso::TenantMixSpec tenants;
  // 1 MB-block network bully to every other leaf (cluster-io-net).
  bool net_bully = false;
  perfiso::PerfIsoConfig perfiso;
  // Static disk cap of the ML training job, bytes/s (0 = none).
  double ml_cap_bps = 0;

  size_t trace_count = 20000;
  Seeds seeds;

  bool cluster() const { return topology.columns > 0; }
  SimTime end() const { return warmup + measure; }
};

const std::vector<std::string>& WorkloadNames();

// The named workload with inputs drawn from `seed`; nullopt for an unknown
// name.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed);

// Compresses the measured window (and a diurnal period with it) by `factor`,
// keeping the warm-up: the tests' short days.
WorkloadSpec ShortenDay(WorkloadSpec spec, double factor);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
