// Host-speed probe. The reference host is shared with other tenants and its
// speed drifts by ±20% over seconds, which no median over a run can remove.
// The probe runs a fixed piece of event-queue-like work (a binary heap of
// timestamps plus random reads and writes over a 4 MB table) after every
// RunUntil slice; its rate tracks how fast the host is at that moment. It
// uses none of the program's code, so the program cannot change it.
#ifndef SIMBENCH_HOST_PROBE_H_
#define SIMBENCH_HOST_PROBE_H_

namespace simbench {

// Probe rate of the reference host (4-vCPU Xeon, see README.md), in million
// probe steps per second; a fixed constant that host times are scaled to.
inline constexpr double kReferenceProbeRate = 5.0;

// Runs one fixed probe burst (about 2 ms on the reference host) and returns
// its host time in seconds.
double RunHostProbe();

// Steps in one probe burst.
double HostProbeSteps();

}  // namespace simbench

#endif  // SIMBENCH_HOST_PROBE_H_
