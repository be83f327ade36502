// The benchmark's own tests: every output check rejects a corrupted result,
// the partitioned engine gives the same outputs at 1 and 4 worker threads,
// and the seed argument reaches the inputs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simbench/checks.h"
#include "simbench/round.h"
#include "simbench/workloads.h"
#include "src/util/rng.h"
#include "src/workload/query_trace.h"

namespace simbench {
namespace {

WorkloadSpec Short(const std::string& name, uint64_t seed, double factor) {
  return ShortenDay(*MakeWorkload(name, seed), factor);
}

// A 2 s box day: every check but the caps has data.
const RoundResult& BoxRound() {
  static const RoundResult* round =
      new RoundResult(RunRound(Short("box-day", 1, 1.0 / 12), RoundOptions{}));
  return *round;
}

// Half a second of cluster-io-net: the workload with caps.
const RoundResult& IoNetRound() {
  static const RoundResult* round =
      new RoundResult(RunRound(Short("cluster-io-net", 1, 1.0 / 8), RoundOptions{}));
  return *round;
}

template <typename Check>
std::vector<std::string> Failures(Check check, const RoundResult& r) {
  std::vector<std::string> failures;
  check(r, &failures);
  return failures;
}

TEST(Checks, PassOnUncorruptedRounds) {
  EXPECT_EQ(CheckRound(BoxRound()), std::vector<std::string>{});
  EXPECT_EQ(CheckRound(IoNetRound()), std::vector<std::string>{});
  EXPECT_GT(BoxRound().prog_samples, 1000);
  EXPECT_FALSE(IoNetRound().ml_bytes.empty());
  EXPECT_FALSE(IoNetRound().egress_bytes.empty());
}

TEST(Checks, ConservationRejectsCorruptedCounts) {
  RoundResult r = BoxRound();
  r.prog_submitted += 1;
  EXPECT_FALSE(Failures(CheckConservation, r).empty());

  r = BoxRound();
  r.prog_inflight += 1;
  EXPECT_FALSE(Failures(CheckConservation, r).empty());

  r = BoxRound();
  r.client_submitted -= 1;
  EXPECT_FALSE(Failures(CheckConservation, r).empty());

  r = BoxRound();
  for (QuerySample& q : r.queries) {
    if (q.finish > r.warmup) {
      q.finish = -1;  // a completion the benchmark never saw
      break;
    }
  }
  EXPECT_FALSE(Failures(CheckConservation, r).empty());
}

TEST(Checks, LatencyRejectsCorruptedSamples) {
  RoundResult r = BoxRound();
  r.queries[r.queries.size() / 2].reported_ms += 0.001;
  EXPECT_FALSE(Failures(CheckLatency, r).empty());

  r = BoxRound();
  r.prog_p99_ms *= 1.0001;
  EXPECT_FALSE(Failures(CheckLatency, r).empty());

  r = BoxRound();
  r.prog_p50_ms += 0.01;
  EXPECT_FALSE(Failures(CheckLatency, r).empty());

  r = BoxRound();
  r.prog_samples += 1;
  EXPECT_FALSE(Failures(CheckLatency, r).empty());
}

TEST(Checks, ArrivalRateRejectsWrongIntensity) {
  RoundResult r = BoxRound();
  r.expected_window *= 1.2;
  EXPECT_FALSE(Failures(CheckArrivalRate, r).empty());

  r = BoxRound();
  r.expected_total *= 0.8;
  EXPECT_FALSE(Failures(CheckArrivalRate, r).empty());
}

TEST(Checks, CpuAccountingRejectsImpossibleBusyTime) {
  RoundResult r = BoxRound();
  MachineWindow& m = r.machines.front();
  m.busy_ns[0] += static_cast<int64_t>(m.cores) * r.window;
  EXPECT_FALSE(Failures(CheckCpuAccounting, r).empty());

  r = BoxRound();
  r.machines.front().busy_ns[2] = -1;
  EXPECT_FALSE(Failures(CheckCpuAccounting, r).empty());

  r = BoxRound();
  r.machines.front().busy_ns[1] = (r.secondary_core_limit + 1) * r.window;
  EXPECT_FALSE(Failures(CheckCpuAccounting, r).empty());

  r = BoxRound();
  r.max_secondary_share = 1.01;
  EXPECT_FALSE(Failures(CheckCpuAccounting, r).empty());
}

TEST(Checks, CapsRejectExcessBytes) {
  const double window_s = perfiso::ToSeconds(IoNetRound().window);
  RoundResult r = IoNetRound();
  r.ml_bytes.front() = static_cast<int64_t>(r.ml_cap_bps * window_s + r.ml_burst_bytes) + 1;
  EXPECT_FALSE(Failures(CheckCaps, r).empty());

  r = IoNetRound();
  r.egress_bytes.back() =
      static_cast<int64_t>(r.egress_cap_bps * window_s + r.egress_burst_bytes) + 1;
  EXPECT_FALSE(Failures(CheckCaps, r).empty());
}

TEST(Checks, CompareDeterministicFlagsAnyChange) {
  RoundResult r = BoxRound();
  EXPECT_TRUE(CompareDeterministic(BoxRound(), r).empty());
  r.sim["query.p99_ms"] += 1e-9;
  EXPECT_FALSE(CompareDeterministic(BoxRound(), r).empty());

  r = BoxRound();
  r.digests["end_to_end"] ^= 1;
  EXPECT_FALSE(CompareDeterministic(BoxRound(), r).empty());
}

TEST(Pdes, SameOutputsAtOneAndFourWorkerThreads) {
  const WorkloadSpec spec = Short("cluster-1k-day-pdes", 1, 1.0 / 16);
  RoundOptions one;
  one.threads = 1;
  RoundOptions four;
  four.threads = 4;
  const RoundResult a = RunRound(spec, one);
  const RoundResult b = RunRound(spec, four);
  EXPECT_EQ(CheckRound(a), std::vector<std::string>{});
  EXPECT_GT(a.sim.at("sim.parallel.windows"), 0);
  EXPECT_GT(a.sim.at("sim.parallel.messages"), 0);
  EXPECT_EQ(CompareDeterministic(a, b), std::vector<std::string>{});
}

TEST(Seed, ChangesTheInputs) {
  const WorkloadSpec one = *MakeWorkload("box-day", 1);
  const WorkloadSpec two = *MakeWorkload("box-day", 2);
  EXPECT_NE(one.seeds.trace, two.seeds.trace);
  EXPECT_NE(one.seeds.client, two.seeds.client);
  EXPECT_NE(one.seeds.node, two.seeds.node);

  perfiso::Rng rng_one(one.seeds.trace);
  perfiso::Rng rng_two(two.seeds.trace);
  const auto trace_one = perfiso::GenerateTrace(perfiso::TraceSpec{}, 100, &rng_one);
  const auto trace_two = perfiso::GenerateTrace(perfiso::TraceSpec{}, 100, &rng_two);
  int differing = 0;
  for (size_t i = 0; i < trace_one.size(); ++i) {
    differing += trace_one[i].size_factor != trace_two[i].size_factor ? 1 : 0;
  }
  EXPECT_GT(differing, 90);

  // Another seed, other arrivals and latencies; the same seed, the same ones.
  const RoundResult other = RunRound(Short("box-day", 2, 1.0 / 12), RoundOptions{});
  EXPECT_NE(other.digests.at("queries"), BoxRound().digests.at("queries"));
  EXPECT_NE(other.digests.at("end_to_end"), BoxRound().digests.at("end_to_end"));
  const RoundResult again = RunRound(Short("box-day", 1, 1.0 / 12), RoundOptions{});
  EXPECT_TRUE(CompareDeterministic(again, BoxRound()).empty());
}

TEST(Workloads, NamesResolve) {
  for (const std::string& name : WorkloadNames()) {
    EXPECT_TRUE(MakeWorkload(name, 7).has_value()) << name;
  }
  EXPECT_FALSE(MakeWorkload("no-such-workload", 7).has_value());
}

}  // namespace
}  // namespace simbench
