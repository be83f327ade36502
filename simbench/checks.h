// Output checks run on every round. Each one recomputes a result from the
// benchmark's own observations, or tests a property the method must have; it
// never compares against a stored copy of an earlier output. A check appends
// one message per violation to `failures`.
#ifndef SIMBENCH_CHECKS_H_
#define SIMBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "simbench/round.h"

namespace simbench {

// Arrivals counted by the benchmark's submit callback equal the program's
// submitted counts, and submitted = completed + failed + in flight, with the
// in-flight figures the benchmark's own.
void CheckConservation(const RoundResult& r, std::vector<std::string>* failures);

// Every reported latency equals the simulated gap between the benchmark's
// own submit and completion times, and P50/P99 recomputed from those gaps
// equal the program's recorder.
void CheckLatency(const RoundResult& r, std::vector<std::string>* failures);

// Arrivals match the integral of LoadShapeSpec::RateAt within five Poisson
// standard deviations, over the window and over the whole run.
void CheckArrivalRate(const RoundResult& r, std::vector<std::string>* failures);

// Per machine: primary, secondary and OS busy time are non-negative and,
// with the idle remainder, fill cores x window; the secondary never uses
// more than the cores blind isolation leaves it, in the window or in any
// slice.
void CheckCpuAccounting(const RoundResult& r, std::vector<std::string>* failures);

// Per machine: ML disk bytes and secondary egress bytes stay within cap x
// window plus the configured burst.
void CheckCaps(const RoundResult& r, std::vector<std::string>* failures);

// All of the above.
std::vector<std::string> CheckRound(const RoundResult& r);

// Differences between the deterministic outputs (simulated statistics,
// digests, per-layer counts) of two rounds of the same inputs.
std::vector<std::string> CompareDeterministic(const RoundResult& a, const RoundResult& b);

}  // namespace simbench

#endif  // SIMBENCH_CHECKS_H_
