#pragma once

// Machine-speed calibration. On a shared host the benchmark's effective
// speed drifts by 25% or more within a minute, in CPU time as well as wall
// time (no steal is reported). Two kernels that share no code with the
// library track that drift: a dependent load chase through 64 MiB (memory
// latency; tracks swarm and bulk) and a hash-map insert/erase loop over
// small heap buffers (allocator and cache pressure; tracks churn). The
// calibrator times both, next to every timed delivery; see README.md for
// how the end-to-end times are scaled by them.

#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  Calibrator();
  /// How much slower the machine runs now than the reference machine: the
  /// geometric mean of the two kernels' times over their reference times
  /// (1 = reference speed, 1.2 = 20% slower).
  double slowdown();

 private:
  double chase_ns_per_load();
  double churn_ms();

  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
