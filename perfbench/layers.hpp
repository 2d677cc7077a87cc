#pragma once

// The traced run's per-layer measurements. Spans are recorded only around
// the benchmark's own calls into the library (run_until steps, memory
// audits, admission, sketch and Bloom calls on live peers, standalone
// codec and wire kernels) and kept in memory until the run ends. Counters
// are read from what the engine already exposes, after a delivery's timed
// region.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Process CPU seconds and minor page faults (getrusage).
struct ProcSample {
  double cpu_s = 0.0;
  double minor_faults = 0.0;

  static ProcSample now();
  ProcSample operator-(const ProcSample& earlier) const {
    return {cpu_s - earlier.cpu_s, minor_faults - earlier.minor_faults};
  }
};

/// One recorded span: a named interval and the span that contains it
/// (-1 = a root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

class LayerReport {
 public:
  explicit LayerReport(const Workload& workload);

  /// The untimed warm-up round's wall times and process cost, and its
  /// first delivery's last tick (which places the live-peer sample and
  /// spaces the memory audits).
  void note_cold(double setup_s, double run_s, const ProcSample& cost,
                 std::uint64_t end_tick);
  /// Adds one finished untraced delivery's engine counters (loop,
  /// planner, shard pool, codec, wire, endpoint failures) to the round.
  void add_counters(const Instance& finished, double run_s);
  /// Closes an untraced round: its counter sums become the reported
  /// counts, its shard-pool timings one sample of their medians.
  void end_round();
  /// Times the standalone layer kernels, sized from the workload.
  void time_kernels();
  /// Builds the metric list once every round has run.
  void finish(double untraced_goodput, double traced_goodput,
              double warm_setup_s, double warm_run_s,
              std::size_t completion_samples);

  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Writes the in-memory spans as JSON lines.
  void write_spans(const std::string& path) const;

 private:
  friend class StepTracer;

  /// Per-round sums of the counters one delivery exposes.
  struct Counters {
    double ticks_executed = 0, ticks_skipped = 0, events_processed = 0;
    double queue_ops = 0, queue_pushes = 0, queue_stale = 0, rebuilds = 0;
    double equations = 0, substitutions = 0, recovered = 0, redundant = 0;
    double control_bytes = 0, control_frames = 0, data_bytes = 0,
           data_frames = 0, frames_refused = 0;
    double failed_sessions = 0, liveness_timeouts = 0,
           handshake_exhausted = 0;
    double pool_wall_s = 0, pool_busy_max_s = 0, pool_busy_mean_s = 0,
           run_s = 0;
    bool pooled = false;  // any delivery ran on a worker pool
  };

  int open_span(const char* name, int parent);
  void close_span(int id);

  const Workload& workload_;
  std::int64_t epoch_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<double> step_ms_;
  double cold_setup_s_ = 0.0;
  double cold_run_s_ = 0.0;
  ProcSample cold_cost_;
  std::uint64_t sample_tick_ = 0;
  /// Ticks between memory audits: an audit walks every decoder, which on
  /// bulk costs more than the step it follows, so a delivery is audited
  /// about kAuditsPerDelivery times rather than at every step.
  static constexpr std::uint64_t kAuditsPerDelivery = 64;
  std::uint64_t audit_every_ = 1;
  Counters round_;
  Counters counted_;
  std::vector<double> pool_wall_s_;
  std::vector<double> pool_busy_max_s_;
  std::vector<double> pool_barrier_frac_;
  std::vector<double> pool_coordinator_s_;
  std::vector<double> pool_imbalance_;
  std::vector<double> select_us_;
  std::vector<double> estimate_ns_;
  std::vector<double> bloom_us_;
  double peak_decoder_ = 0.0;
  double peak_endpoint_ = 0.0;
  double peak_link_ = 0.0;
  std::vector<Metric> kernels_;
  std::vector<Metric> metrics_;
  /// Folds kernel results so the optimizer cannot drop the timed work.
  std::uint64_t sink_ = 0;
};

/// Drives one traced delivery in small run_until steps, recording a span
/// per step and a memory audit every audit_every_ ticks, and sampling the
/// live peers' admission, sketch and Bloom layers once, a third of the way
/// through the run.
class StepTracer {
 public:
  explicit StepTracer(LayerReport& report) : report_(report) {}
  void drive(Instance& instance);

 private:
  void sample_live_peers(const Instance& instance, int parent);

  LayerReport& report_;
};

}  // namespace perfbench
