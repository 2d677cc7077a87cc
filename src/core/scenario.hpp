#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/delivery.hpp"
#include "core/fault_plan.hpp"
#include "overlay/strategy.hpp"
#include "wire/channel.hpp"

/// Declarative stress scenarios: the robustness layer every workload plugs
/// into.
///
/// A scenario is one small text file (see docs/SCENARIOS.md and the
/// `scenarios/` catalog) describing a heterogeneous swarm under adverse
/// conditions: per-peer *access-link profiles* (named classes — dsl, fiber,
/// mobile — mapping to rate/delay/jitter/burst-loss mixes), *arrival
/// processes* (seeded Poisson trickles and flash-crowd ramps compiled into
/// FaultPlan join events), explicit fault windows, and per-scenario *pass
/// gates* (completion deadline, failed-session budget, control-byte
/// budget). compile_scenario() lowers one file into the DeliveryOptions +
/// FaultPlan the delivery engine consumes, so the identical adversity runs
/// lockstep and through the event-loop jump driver — bench_scenarios
/// re-proves lockstep == jump per catalog entry, and the golden
/// trajectories pin every entry's history.
///
/// The paper's claims live on heterogeneous, adverse conditions (access
/// mixes are where adaptation is actually stressed; reliable delivery must
/// be judged on survival under diverse loss/delay regimes, not one clean
/// configuration) — this subsystem is how those conditions are named,
/// versioned, and gated instead of hard-coded per bench.
namespace icd::core {

class ShardedDelivery;

/// One named access-link class. Rates are bytes per virtual tick with the
/// repo's token-bucket semantics (0 = unlimited); delay/jitter are virtual
/// ticks; loss composes with the far end's when an edge is formed.
struct LinkProfile {
  std::string name;
  double up_rate = 0.0;    // uplink bytes/tick (serving direction)
  double down_rate = 0.0;  // downlink bytes/tick (receiving direction)
  std::uint64_t delay_ticks = 0;
  std::uint64_t jitter_ticks = 0;
  double loss_rate = 0.0;  // independent Bernoulli loss contribution
  /// Gilbert-Elliott burst loss (off unless ge_loss_bad > 0); folded with
  /// the far end's plain loss when the edge is composed.
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.0;
  double ge_p_good_bad = 0.0;
  double ge_p_bad_good = 0.0;
};

/// One join-arrival generator, compiled into FaultPlan::Join events.
struct ArrivalProcess {
  enum class Kind : std::uint8_t {
    kFlash,   // `count` joins at `at`, optionally ramped over `ramp_ticks`
    kPoisson  // seeded exponential inter-arrivals from `at`, `rate` joins/tick
  };
  Kind kind = Kind::kFlash;
  std::uint64_t at = 0;
  std::size_t count = 1;
  std::uint64_t ramp_ticks = 0;  // flash only; 0 = all at once
  double rate = 0.0;             // poisson only
  std::uint64_t seed = 1;        // poisson only
};

/// Per-scenario pass gates. 0 disables a gate (deadline falls back to
/// max_ticks — a scenario must always finish inside its horizon).
struct ScenarioGates {
  std::uint64_t deadline_ticks = 0;
  std::size_t max_failed_sessions = 0;
  std::size_t control_budget_bytes = 0;
};

/// The parsed scenario file: swarm shape, engine knobs, link classes,
/// arrivals, faults, gates.
struct Scenario {
  std::string name = "unnamed";
  std::size_t peers = 4;
  std::size_t fed = 1;  // origin-fed peers (ids 0..fed-1)
  std::size_t content_bytes = 1536;
  std::size_t block_size = 64;
  std::uint64_t seed = 0x5ce11a01;
  overlay::Strategy strategy = overlay::Strategy::kRecodeBloom;
  std::size_t mtu = 1400;
  std::size_t refresh_interval = 50;
  std::size_t max_peer_sessions = 2;
  bool flow_control = true;
  std::size_t handshake_retry_ticks = 24;
  std::size_t liveness_timeout_ticks = 0;
  std::size_t handshake_backoff_factor = 1;
  std::size_t handshake_backoff_cap_ticks = 0;
  std::size_t max_handshake_retries = 0;
  std::size_t suspect_ttl_ticks = 0;
  std::uint64_t max_ticks = 30000;

  std::vector<LinkProfile> profiles;
  /// peer id -> index into `profiles`. Unmapped peers (including joiners)
  /// fall back to `access_default`, or an unshaped link when unset.
  std::map<std::size_t, std::size_t> access;
  std::optional<std::size_t> access_default;

  std::vector<ArrivalProcess> arrivals;
  /// Explicit crash/stall/restart/blackout lines (joins come from
  /// `arrivals`).
  FaultPlan faults;
  ScenarioGates gates;

  /// Profile index assigned to `peer` (access map, then default).
  std::optional<std::size_t> profile_index(std::size_t peer) const;

  /// Parses the key/value scenario format. Throws std::runtime_error with
  /// `origin` and the offending line number on any malformed, duplicate,
  /// out-of-range, or unresolvable input — never UB, never a silent
  /// default.
  static Scenario parse(std::istream& in, const std::string& origin);
  static Scenario parse_text(const std::string& text,
                             const std::string& origin = "scenario");
  static Scenario parse_file(const std::string& path);
};

/// The edge-composition rule: a directed download edge sender -> receiver
/// is shaped by the sender's *uplink* and the receiver's *downlink* — rate
/// is the bottleneck of the two (0 = unlimited), delay/jitter accumulate,
/// independent losses compose, and a Gilbert-Elliott chain on either side
/// carries over with the far end's plain loss folded into both of its
/// states. `base` supplies the MTU and any scenario-wide defaults.
wire::ChannelConfig compose_edge(const LinkProfile* sender,
                                 const LinkProfile* receiver,
                                 const wire::ChannelConfig& base);

/// Expands arrival processes into deterministic, time-sorted join events.
/// Poisson draws are reproducible from each process's own seed.
std::vector<FaultPlan::Join> generate_arrivals(
    const std::vector<ArrivalProcess>& arrivals);

/// A scenario lowered into what a delivery engine consumes: options (with
/// the per-edge link_config closure and the full fault plan, arrivals
/// included), deterministic content, and the run horizon.
struct CompiledScenario {
  DeliveryOptions options;
  std::vector<std::uint8_t> content;
  std::size_t peers = 0;
  std::size_t fed = 0;
  std::uint64_t max_ticks = 0;
  /// Latest fault boundary (crash/restart/join/stall/blackout edge) —
  /// reported for deadline calibration; runs stop on
  /// ShardedDelivery::run_until's all-complete rule.
  std::uint64_t last_fault_tick = 0;
  /// Joiners the arrival processes add on top of `peers`.
  std::size_t total_joins = 0;
  ScenarioGates gates;
  std::string name;
};

CompiledScenario compile_scenario(const Scenario& scenario);

/// One engine run's harvested trajectory — the determinism-comparison and
/// gate-evaluation currency shared by bench_scenarios and the tests.
struct ScenarioOutcome {
  std::size_t peer_count = 0;
  std::vector<std::size_t> completion_ticks;  // 0 = never
  std::vector<bool> down_at_end;              // crashed/stalled at the end
  std::size_t control_bytes = 0;
  std::size_t data_bytes = 0;
  std::size_t data_frames = 0;
  std::size_t failed_sessions = 0;
  std::uint64_t end_tick = 0;
  std::uint64_t ticks_skipped = 0;

  /// Trajectory equality for the determinism gates (wall-clock fields —
  /// end_tick, ticks_skipped — excluded by design).
  bool same_trajectory(const ScenarioOutcome& other) const {
    return peer_count == other.peer_count &&
           completion_ticks == other.completion_ticks &&
           control_bytes == other.control_bytes &&
           data_bytes == other.data_bytes &&
           data_frames == other.data_frames &&
           failed_sessions == other.failed_sessions;
  }
};

/// Gate verdict: every surviving peer completed inside the deadline, the
/// failed-session count stayed within budget, and the control plane stayed
/// within its byte budget.
struct GateVerdict {
  bool survivors_completed = false;
  bool deadline_met = false;
  bool failures_within_budget = false;
  bool control_within_budget = false;
  bool pass() const {
    return survivors_completed && deadline_met && failures_within_budget &&
           control_within_budget;
  }
};

GateVerdict evaluate_gates(const ScenarioOutcome& outcome,
                           const CompiledScenario& compiled);

/// Harvests one finished engine run.
ScenarioOutcome harvest_scenario(const ShardedDelivery& engine);

/// Adds the scenario's initial peers (ids 0..fed-1 origin-fed) to a fresh
/// engine; joiners arrive through the fault plan.
void seed_scenario_peers(ShardedDelivery& engine,
                         const CompiledScenario& compiled);

/// Sorted scenario files (`*.scn`) under `dir`; throws when the directory
/// does not exist or holds no scenarios (a silently empty catalog would
/// pass every gate).
std::vector<std::string> list_scenario_files(const std::string& dir);

}  // namespace icd::core
