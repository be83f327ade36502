#include "simbench/host_probe.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "simbench/spans.h"

namespace simbench {

namespace {

constexpr int kSteps = 8000;
constexpr uint32_t kTableSlots = 1 << 16;  // 64 B each: 4 MB
constexpr uint32_t kHeapSize = 1 << 14;

struct Slot {
  uint64_t words[8];
};

struct ProbeState {
  std::vector<Slot> table = std::vector<Slot>(kTableSlots);
  std::vector<uint64_t> heap;  // min-heap of (time << 16 | slot)
  uint64_t rng = 88172645463325252ULL;
  uint64_t sink = 0;

  ProbeState() {
    for (uint32_t i = 0; i < kHeapSize; ++i) {
      heap.push_back((Next() % 1000000) << 16 | (i & 0xffff));
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }

  uint64_t Next() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
};

}  // namespace

double HostProbeSteps() { return kSteps; }

double RunHostProbe() {
  static ProbeState state;
  const auto start = HostClock::now();
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(state.heap.begin(), state.heap.end(), std::greater<>());
    const uint64_t top = state.heap.back();
    const uint64_t r = state.Next();
    Slot& slot = state.table[(r >> 24) & (kTableSlots - 1)];
    slot.words[top & 7] += top >> 16;
    state.sink += slot.words[(r >> 3) & 7];
    state.heap.back() = ((top >> 16) + (r % 1000) + 1) << 16 | (top & 0xffff);
    std::push_heap(state.heap.begin(), state.heap.end(), std::greater<>());
  }
  const double seconds = SecondsSince(start);
  // Keep the work observable so it is not optimized away.
  if (state.sink == 42) {
    state.rng ^= 1;
  }
  return seconds;
}

}  // namespace simbench
