#include "simbench/workloads.h"

#include <cmath>
#include <cstdlib>

#include "src/cluster/index_node.h"

namespace simbench {

using perfiso::kMillisecond;
using perfiso::kSecond;

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

perfiso::PerfIsoConfig BlindB8() {
  perfiso::PerfIsoConfig config;
  config.cpu_mode = perfiso::CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 8;
  return config;
}

// bench/fig_cluster_scale.cc's scenario: 1,000 leaves (50 rows x 20 columns)
// and 31 TLAs serve one compressed diurnal day, 2,000 QPS peak, trough 0.25,
// beside an 8-thread CPU bully per leaf under blind isolation.
WorkloadSpec Cluster1kDay() {
  WorkloadSpec spec;
  spec.name = "cluster-1k-day";
  spec.topology = perfiso::ClusterTopology{20, 50, 31};
  spec.load = perfiso::DiurnalLoad(/*peak_qps=*/2000, /*period_sec=*/8, /*trough_fraction=*/0.25);
  spec.warmup = kSecond / 2;
  spec.measure = 8 * kSecond;
  spec.slice = 250 * kMillisecond;
  spec.tenants.cpu_bully_threads = 8;
  spec.perfiso = BlindB8();
  return spec;
}

// The registry's diurnal-blind box (bench/harness.cc): one 24 s day at
// 4,000 QPS peak, trough 0.1, beside a 48-thread CPU bully.
WorkloadSpec BoxDay() {
  WorkloadSpec spec;
  spec.name = "box-day";
  spec.load = perfiso::DiurnalLoad(/*peak_qps=*/4000, /*period_sec=*/24);
  spec.warmup = kSecond;
  spec.measure = 24 * kSecond;
  spec.slice = kSecond;
  spec.tenants.cpu_bully_threads = 48;
  spec.perfiso = BlindB8();
  return spec;
}

// bench/fig_net_egress.cc's capped setting plus Fig. 10's secondary: every
// leaf of an 8x2 cluster runs the HDFS client, 20-thread ML training with its
// HDD reads capped at 100 MB/s, and a 1 MB-block network bully to all peers
// shaped to 50 MB/s of egress.
WorkloadSpec ClusterIoNet() {
  WorkloadSpec spec;
  spec.name = "cluster-io-net";
  spec.topology = perfiso::ClusterTopology{8, 2, 8};
  spec.load = perfiso::ConstantLoad(3000);
  spec.warmup = kSecond / 2;
  spec.measure = 4 * kSecond;
  spec.slice = 250 * kMillisecond;
  spec.tenants.hdfs_client = true;
  spec.tenants.ml_training = true;
  spec.tenants.ml_worker_threads = 20;
  spec.net_bully = true;
  spec.perfiso = BlindB8();
  spec.ml_cap_bps = 100e6;
  spec.perfiso.io_limits.push_back(perfiso::IoOwnerLimit{
      perfiso::kIoOwnerMlTraining, spec.ml_cap_bps, 0, /*priority=*/2, 1.0, 0});
  spec.perfiso.egress_rate_cap_bps = 50e6;
  return spec;
}

}  // namespace

Seeds DeriveSeeds(uint64_t seed) {
  uint64_t state = seed;
  Seeds seeds;
  seeds.trace = SplitMix64(&state);
  seeds.client = SplitMix64(&state);
  seeds.node = SplitMix64(&state);
  return seeds;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cluster-1k-day", "cluster-1k-day-pdes",
                                                 "box-day", "cluster-io-net"};
  return names;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSpec spec;
  if (name == "cluster-1k-day") {
    spec = Cluster1kDay();
  } else if (name == "cluster-1k-day-pdes") {
    spec = Cluster1kDay();
    spec.name = name;
    spec.partitions = kPdesPartitions;
    spec.threads = kPdesThreads;
  } else if (name == "box-day") {
    spec = BoxDay();
  } else if (name == "cluster-io-net") {
    spec = ClusterIoNet();
  } else {
    return std::nullopt;
  }
  spec.seeds = DeriveSeeds(seed);
  return spec;
}

WorkloadSpec ShortenDay(WorkloadSpec spec, double factor) {
  spec.measure = static_cast<SimDuration>(std::llround(static_cast<double>(spec.measure) * factor));
  if (spec.load.kind == perfiso::LoadShapeKind::kDiurnal) {
    spec.load.diurnal_period_sec *= factor;
  }
  if (spec.measure <= 0 || spec.measure % spec.slice != 0) {
    std::abort();  // a test asked for a window that is not whole slices
  }
  return spec;
}

}  // namespace simbench
