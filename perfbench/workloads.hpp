#pragma once

// The benchmark's three workloads, each driven through the public API of
// core::ShardedDelivery only. A workload turns a seed into inputs
// (content bytes, engine knobs, scenario text), builds a ready-to-run
// engine from those inputs (the timed set-up), and harvests and verifies
// a finished run (untimed).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_delivery.hpp"

namespace perfbench {

/// One delivery's inputs, generated from a seed.
struct Inputs {
  std::string workload;
  std::vector<std::uint8_t> content;
  std::uint64_t session_seed = 0;
  /// churn only: generated .scn text (access classes, the Poisson arrival
  /// seed and the crash schedule are drawn from the seed while writing it).
  std::string scenario_text;
};

/// A workload: the deliveries one round runs, all generated from --seed
/// once per process, plus the shape the traced run sizes its kernels and
/// steps from. A round runs every delivery once; pooling several
/// independent deliveries per round keeps the seed-to-seed spread of the
/// trajectory metrics small where one delivery alone varies widely.
struct Workload {
  std::string name;
  std::vector<Inputs> deliveries;
  std::size_t block_size = 0;
  std::size_t mtu = 0;
  /// Candidate senders one admission call ranks.
  std::size_t admission_candidates = 0;
  /// Virtual ticks per traced run_until step.
  std::uint64_t step_ticks = 1;
  /// How strongly the workload's speed follows the calibration: its times
  /// are scaled by slowdown^exponent. Measured per workload as the slope
  /// of log raw goodput on log slowdown across runs (README.md).
  double slowdown_exponent = 1.0;
};

/// One constructed engine, peers registered, ready for run_until.
struct Instance {
  std::unique_ptr<icd::core::ShardedDelivery> engine;
  /// Virtual tick each peer id joins at (initial peers 0, arrival-process
  /// joiners at their scheduled tick); covers every id the run will add.
  std::vector<std::uint64_t> join_tick;
  std::uint64_t max_ticks = 0;
};

/// A finished run's deterministic trajectory plus its verification.
struct Outcome {
  std::vector<std::uint64_t> completion_tick;  // per peer, 0 = never
  icd::core::ShardedDelivery::LinkTotals totals;
  std::uint64_t end_tick = 0;
  /// Peers the run had to deliver to (down-at-end incomplete peers are
  /// exempt), peers holding content equal to the origin's, peers holding
  /// different content, and attempted peers without content.
  std::size_t attempted = 0;
  std::size_t verified = 0;
  std::size_t mismatched = 0;
  std::size_t incomplete = 0;
  /// Join-to-completion ticks of verified peers, ascending.
  std::vector<std::uint64_t> completion_ticks;

  bool same_trajectory(const Outcome& other) const;
};

bool known_workload(const std::string& name);
Workload make_workload(const std::string& name, std::uint64_t seed);
/// The timed set-up: engine construction, initial peer registration and
/// (churn) scenario parse + compile_scenario.
Instance build_instance(const Inputs& inputs);
/// Untimed: compares every completed peer's content to inputs.content.
Outcome harvest(const Instance& instance, const Inputs& inputs);

/// Nearest-rank percentile of an ascending sample (q in (0, 1]).
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q);

}  // namespace perfbench
