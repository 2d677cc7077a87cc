// The declarative scenario engine: parser round-trips and its fuzz-style
// rejection corpus (truncated lines, duplicate keys, out-of-range rates,
// unknown profile names — every malformed input throws with the origin and
// line number, never UB), arrival-process generation (seeded Poisson and
// flash ramps compiled into sorted FaultPlan joins), access-link edge
// composition, and a full compile-and-run lockstep and jumped with the
// determinism contract and pass gates enforced.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sharded_delivery.hpp"
#include "wire/channel.hpp"

namespace icd {
namespace {

using core::ArrivalProcess;
using core::LinkProfile;
using core::Scenario;

/// EXPECT that parsing `text` throws and the message contains every needle
/// (origin tag, line number, and the actionable phrase).
void expect_rejected(const std::string& text,
                     const std::vector<std::string>& needles) {
  try {
    Scenario::parse_text(text, "corpus.scn");
    FAIL() << "parser accepted malformed scenario:\n" << text;
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    for (const auto& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "error message '" << what << "' missing '" << needle << "'";
    }
  }
}

// --- Parsing ----------------------------------------------------------------

TEST(ScenarioParse, FullFileRoundTrip) {
  const auto scenario = Scenario::parse_text(R"(# a comment line
name kitchen-sink
peers 6
fed 2
content_bytes 1536
block_size 64
seed 99
strategy random
mtu 900
refresh_interval 40
max_peer_sessions 3
flow_control 1
handshake_retry_ticks 30
liveness_timeout_ticks 25
handshake_backoff_factor 2
handshake_backoff_cap_ticks 64
max_handshake_retries 6
suspect_ttl_ticks 60
max_ticks 20000

profile dsl up 96.0 down 768.0 delay 3 jitter 1 loss 0.01
profile mobile up 48.0 down 200.0 delay 6 jitter 4 ge 0.02 0.5 0.03 0.2
access 0 dsl
access 3 mobile
access default dsl

arrival flash 200 3 ramp 60
arrival poisson 50 4 0.05 7

crash 120 3
restart 300 3
stall 150 250 4
blackout 100 180 0 1

gate deadline 15000
gate max_failed_sessions 4
gate control_budget 500000
)");

  EXPECT_EQ(scenario.name, "kitchen-sink");
  EXPECT_EQ(scenario.peers, 6u);
  EXPECT_EQ(scenario.fed, 2u);
  EXPECT_EQ(scenario.strategy, overlay::Strategy::kRandom);
  EXPECT_EQ(scenario.mtu, 900u);
  EXPECT_TRUE(scenario.flow_control);
  EXPECT_EQ(scenario.suspect_ttl_ticks, 60u);
  EXPECT_EQ(scenario.max_ticks, 20000u);

  ASSERT_EQ(scenario.profiles.size(), 2u);
  EXPECT_EQ(scenario.profiles[0].name, "dsl");
  EXPECT_DOUBLE_EQ(scenario.profiles[0].up_rate, 96.0);
  EXPECT_DOUBLE_EQ(scenario.profiles[0].down_rate, 768.0);
  EXPECT_EQ(scenario.profiles[1].delay_ticks, 6u);
  EXPECT_DOUBLE_EQ(scenario.profiles[1].ge_loss_bad, 0.5);

  // access map + default: explicit beats default; everyone else falls back.
  EXPECT_EQ(scenario.profile_index(0), std::optional<std::size_t>{0});
  EXPECT_EQ(scenario.profile_index(3), std::optional<std::size_t>{1});
  EXPECT_EQ(scenario.profile_index(5), std::optional<std::size_t>{0});

  ASSERT_EQ(scenario.arrivals.size(), 2u);
  EXPECT_EQ(scenario.arrivals[0].kind, ArrivalProcess::Kind::kFlash);
  EXPECT_EQ(scenario.arrivals[0].ramp_ticks, 60u);
  EXPECT_EQ(scenario.arrivals[1].kind, ArrivalProcess::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(scenario.arrivals[1].rate, 0.05);
  EXPECT_EQ(scenario.arrivals[1].seed, 7u);

  EXPECT_EQ(scenario.faults.crashes.size(), 1u);
  EXPECT_EQ(scenario.faults.stalls[0].until, 250u);
  EXPECT_EQ(scenario.faults.blackouts[0].receiver, 1u);

  EXPECT_EQ(scenario.gates.deadline_ticks, 15000u);
  EXPECT_EQ(scenario.gates.max_failed_sessions, 4u);
  EXPECT_EQ(scenario.gates.control_budget_bytes, 500000u);
}

TEST(ScenarioParse, DefaultsAreUsableWithoutOptionalSections) {
  const auto scenario = Scenario::parse_text("name tiny\npeers 3\n");
  EXPECT_TRUE(scenario.profiles.empty());
  EXPECT_TRUE(scenario.arrivals.empty());
  EXPECT_TRUE(scenario.faults.empty());
  EXPECT_FALSE(scenario.access_default.has_value());
  EXPECT_EQ(scenario.profile_index(0), std::nullopt);
}

// --- Fuzz-style rejection corpus -------------------------------------------
// Every entry is a malformed file that must throw with the origin, the line
// number, and a message that tells the author what to fix.

TEST(ScenarioParse, RejectsTruncatedValues) {
  expect_rejected("peers\n", {"corpus.scn", "line 1", "non-negative integer"});
  expect_rejected("name tiny\nprofile\n", {"line 2", "profile needs a name"});
  expect_rejected("profile dsl up\n", {"line 1", "up", "rate"});
  expect_rejected("arrival flash 10\n", {"line 1", "count"});
  expect_rejected("arrival poisson 10 3 0.5\n", {"line 1", "seed"});
  expect_rejected("stall 100 200\n", {"line 1", "peer"});
  expect_rejected("gate\n", {"line 1", "gate needs a kind"});
  expect_rejected("access 2\n", {"line 1", "profile name"});
}

TEST(ScenarioParse, RejectsDuplicateKeys) {
  expect_rejected("peers 4\npeers 5\n", {"line 2", "duplicate key 'peers'"});
  expect_rejected("seed 1\nseed 1\n", {"line 2", "duplicate key 'seed'"});
  expect_rejected("profile dsl up 10\nprofile dsl down 20\n",
                  {"line 2", "duplicate profile 'dsl'"});
  expect_rejected(
      "profile a up 1\naccess 0 a\naccess 0 a\n",
      {"line 3", "duplicate access for peer 0"});
  expect_rejected(
      "profile a up 1\naccess default a\naccess default a\n",
      {"line 3", "duplicate 'access default'"});
  expect_rejected("gate deadline 10\ngate deadline 20\n",
                  {"line 2", "duplicate gate 'deadline'"});
}

TEST(ScenarioParse, RejectsOutOfRangeValues) {
  expect_rejected("profile a loss 1.5\n", {"line 1", "probability in [0, 1]"});
  expect_rejected("profile a loss -0.1\n", {"line 1", "probability"});
  expect_rejected("profile a up -5\n", {"line 1", "non-negative rate"});
  expect_rejected("profile a ge 0.1 0.5 0.2 0\n",
                  {"line 1", "p_bad_good must be > 0"});
  expect_rejected("profile a ge 0.1 0 0.2 0.3\n",
                  {"line 1", "loss_bad must be > 0"});
  expect_rejected("arrival poisson 10 3 0 5\n", {"line 1", "rate must be > 0"});
  expect_rejected("arrival flash 10 0\n", {"line 1", "count must be >= 1"});
  expect_rejected("peers -2\n", {"line 1", "non-negative integer"});
  expect_rejected("flow_control 2\n", {"line 1", "0 or 1"});
  expect_rejected("stall 200 100 1\n", {"line 1", "until > from"});
  expect_rejected("blackout 100 90 0 1\n", {"line 1", "until > from"});
  expect_rejected("blackout 10 90 2 2\n", {"line 1", "distinct peers"});
}

TEST(ScenarioParse, RejectsUnknownNames) {
  expect_rejected("bogus_key 7\n", {"line 1", "unknown key 'bogus_key'"});
  expect_rejected("strategy warpdrive\n",
                  {"line 1", "unknown strategy 'warpdrive'"});
  expect_rejected("profile a up 1 zap 3\n",
                  {"line 1", "unknown profile attribute 'zap'"});
  expect_rejected("arrival comet 10 3\n",
                  {"line 1", "unknown arrival kind 'comet'"});
  expect_rejected("gate wormhole 9\n", {"line 1", "unknown gate 'wormhole'"});
  expect_rejected("access 1 cable\n",
                  {"line 1", "unknown profile 'cable'"});
}

TEST(ScenarioParse, RejectsTrailingTokens) {
  expect_rejected("peers 4 5\n", {"line 1", "trailing tokens"});
  expect_rejected("crash 10 2 junk\n", {"line 1", "trailing tokens"});
  expect_rejected("arrival flash 10 2 surge 30\n",
                  {"line 1", "trailing tokens"});
}

TEST(ScenarioParse, RejectsCrossLineInconsistencies) {
  expect_rejected("peers 1\n", {"peers must be >= 2"});
  expect_rejected("peers 4\nfed 5\n", {"fed must be in [1, peers]"});
  expect_rejected("content_bytes 100\nblock_size 64\n",
                  {"multiple of block_size"});
  expect_rejected("peers 4\ncrash 10 9\n", {"beyond the swarm population"});
  // ...but a fault aimed at an arrival-process joiner is fine.
  EXPECT_NO_THROW(Scenario::parse_text(
      "peers 4\narrival flash 50 3\ncrash 100 6\n"));
  expect_rejected("peers 4\nprofile a up 1\naccess 7 a\n",
                  {"line 3", "beyond the swarm population"});
  expect_rejected("max_ticks 0\n", {"max_ticks must be > 0"});
}

TEST(ScenarioParse, FileOpenFailureIsActionable) {
  try {
    Scenario::parse_file("/nonexistent/path/x.scn");
    FAIL();
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("cannot open"),
              std::string::npos);
  }
}

// --- Arrival generation -----------------------------------------------------

TEST(ScenarioArrivals, FlashWithoutRampIsOneJoinEvent) {
  ArrivalProcess flash;
  flash.kind = ArrivalProcess::Kind::kFlash;
  flash.at = 100;
  flash.count = 5;
  const auto joins = core::generate_arrivals({flash});
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].at, 100u);
  EXPECT_EQ(joins[0].count, 5u);
}

TEST(ScenarioArrivals, FlashRampSpreadsJoinersAcrossTheWindow) {
  ArrivalProcess flash;
  flash.kind = ArrivalProcess::Kind::kFlash;
  flash.at = 100;
  flash.count = 4;
  flash.ramp_ticks = 40;
  const auto joins = core::generate_arrivals({flash});
  ASSERT_EQ(joins.size(), 4u);
  EXPECT_EQ(joins[0].at, 100u);
  EXPECT_EQ(joins[1].at, 110u);
  EXPECT_EQ(joins[2].at, 120u);
  EXPECT_EQ(joins[3].at, 130u);
  for (const auto& join : joins) EXPECT_EQ(join.count, 1u);
}

TEST(ScenarioArrivals, PoissonIsDeterministicSortedAndComplete) {
  ArrivalProcess poisson;
  poisson.kind = ArrivalProcess::Kind::kPoisson;
  poisson.at = 50;
  poisson.count = 16;
  poisson.rate = 0.1;
  poisson.seed = 42;
  const auto a = core::generate_arrivals({poisson});
  const auto b = core::generate_arrivals({poisson});
  ASSERT_EQ(a.size(), 16u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << "poisson draw " << i << " not reproducible";
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
    EXPECT_GE(a[i].at, 50u);
    total += a[i].count;
  }
  EXPECT_EQ(total, 16u);

  poisson.seed = 43;  // a different seed must give a different point process
  const auto c = core::generate_arrivals({poisson});
  bool any_different = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_different = any_different || c[i].at != a[i].at;
  }
  EXPECT_TRUE(any_different);
}

TEST(ScenarioArrivals, MergedProcessesAreSortedByTime) {
  ArrivalProcess late_flash;
  late_flash.kind = ArrivalProcess::Kind::kFlash;
  late_flash.at = 500;
  late_flash.count = 2;
  ArrivalProcess early;
  early.kind = ArrivalProcess::Kind::kPoisson;
  early.at = 10;
  early.count = 6;
  early.rate = 0.2;
  early.seed = 9;
  const auto joins = core::generate_arrivals({late_flash, early});
  for (std::size_t i = 1; i < joins.size(); ++i) {
    EXPECT_GE(joins[i].at, joins[i - 1].at);
  }
}

// --- Edge composition -------------------------------------------------------

TEST(ScenarioEdges, BottleneckRateDelaySumAndLossComposition) {
  LinkProfile dsl;
  dsl.up_rate = 96.0;
  dsl.down_rate = 768.0;
  dsl.delay_ticks = 3;
  dsl.jitter_ticks = 1;
  dsl.loss_rate = 0.01;
  LinkProfile fiber;
  fiber.up_rate = 5000.0;
  fiber.down_rate = 5000.0;
  fiber.delay_ticks = 1;

  wire::ChannelConfig base;
  base.mtu = 900;

  // dsl -> fiber: the DSL uplink is the bottleneck.
  const auto up = core::compose_edge(&dsl, &fiber, base);
  EXPECT_DOUBLE_EQ(up.rate_bytes_per_tick, 96.0);
  EXPECT_EQ(up.delay_ticks, 4u);
  EXPECT_EQ(up.jitter_ticks, 1u);
  EXPECT_NEAR(up.loss_rate, 0.01, 1e-12);
  EXPECT_EQ(up.mtu, 900u);

  // fiber -> dsl: the DSL downlink caps the edge instead.
  const auto down = core::compose_edge(&fiber, &dsl, base);
  EXPECT_DOUBLE_EQ(down.rate_bytes_per_tick, 768.0);

  // Unshaped far end (nullptr): only the shaped side contributes; a zero
  // (unlimited) rate on one side must not erase the other's cap.
  const auto half = core::compose_edge(&dsl, nullptr, base);
  EXPECT_DOUBLE_EQ(half.rate_bytes_per_tick, 96.0);
  EXPECT_EQ(half.delay_ticks, 3u);
  const auto none = core::compose_edge(nullptr, nullptr, base);
  EXPECT_DOUBLE_EQ(none.rate_bytes_per_tick, 0.0);
  EXPECT_DOUBLE_EQ(none.loss_rate, 0.0);

  // Independent losses compose multiplicatively.
  LinkProfile lossy = dsl;
  lossy.loss_rate = 0.2;
  const auto both = core::compose_edge(&dsl, &lossy, base);
  EXPECT_NEAR(both.loss_rate, 1.0 - 0.99 * 0.8, 1e-12);
}

TEST(ScenarioEdges, GilbertElliottCarriesOverWithFarPlainLossFolded) {
  LinkProfile mobile;
  mobile.ge_loss_good = 0.02;
  mobile.ge_loss_bad = 0.5;
  mobile.ge_p_good_bad = 0.03;
  mobile.ge_p_bad_good = 0.2;
  LinkProfile dsl;
  dsl.loss_rate = 0.1;

  const auto edge = core::compose_edge(&mobile, &dsl, wire::ChannelConfig{});
  EXPECT_DOUBLE_EQ(edge.loss_rate, 0.0) << "GE replaces the Bernoulli draw";
  EXPECT_NEAR(edge.ge_loss_good, 1.0 - 0.98 * 0.9, 1e-12);
  EXPECT_NEAR(edge.ge_loss_bad, 1.0 - 0.5 * 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(edge.ge_p_good_bad, 0.03);
  EXPECT_DOUBLE_EQ(edge.ge_p_bad_good, 0.2);

  // Two chains: the burstier one (larger stationary bad share) wins.
  LinkProfile worse = mobile;
  worse.ge_p_good_bad = 0.1;  // bad share 1/3 vs mobile's ~0.13
  const auto contested =
      core::compose_edge(&mobile, &worse, wire::ChannelConfig{});
  EXPECT_DOUBLE_EQ(contested.ge_p_good_bad, 0.1);
}

// --- Compile + run: the lockstep == jump determinism contract ---------------

constexpr char kRunnableScenario[] = R"(name unit-mixed
peers 5
fed 2
content_bytes 768
block_size 64
seed 1234
refresh_interval 40
flow_control 1
handshake_retry_ticks 24
liveness_timeout_ticks 30
handshake_backoff_factor 2
handshake_backoff_cap_ticks 64
max_handshake_retries 6
suspect_ttl_ticks 60
max_ticks 30000
profile dsl up 400 down 1200 delay 2 jitter 1 loss 0.005
profile fiber up 4000 down 4000 delay 1
access 0 fiber
access default dsl
arrival flash 150 2 ramp 30
crash 120 3
restart 260 3
gate max_failed_sessions 6
)";

TEST(ScenarioCompile, LowersShapeFaultsAndGates) {
  const auto compiled =
      core::compile_scenario(Scenario::parse_text(kRunnableScenario));
  EXPECT_EQ(compiled.name, "unit-mixed");
  EXPECT_EQ(compiled.peers, 5u);
  EXPECT_EQ(compiled.fed, 2u);
  EXPECT_EQ(compiled.content.size(), 768u);
  EXPECT_EQ(compiled.total_joins, 2u);
  // Ramped joiners at 150 and 165; the restart at 260 is the last boundary.
  EXPECT_EQ(compiled.last_fault_tick, 260u);
  ASSERT_TRUE(compiled.options.faults);
  EXPECT_EQ(compiled.options.faults->joins.size(), 2u);
  ASSERT_TRUE(compiled.options.link_config);
  // Edge 1 -> 0 (dsl up, fiber down): DSL uplink bottleneck.
  const auto edge = compiled.options.link_config(1, 0);
  EXPECT_DOUBLE_EQ(edge.rate_bytes_per_tick, 400.0);
  EXPECT_EQ(edge.mtu, compiled.options.link.mtu);
  // A joiner beyond the initial population falls back to the default class.
  const auto join_edge = compiled.options.link_config(0, 6);
  EXPECT_DOUBLE_EQ(join_edge.rate_bytes_per_tick, 1200.0);

  // Same seed -> identical content; different seed -> different content.
  auto reseeded = Scenario::parse_text(kRunnableScenario);
  EXPECT_EQ(core::compile_scenario(reseeded).content, compiled.content);
  reseeded.seed = 77;
  EXPECT_NE(core::compile_scenario(reseeded).content, compiled.content);
}

TEST(ScenarioRun, LockstepAndJumpAgreeAndGatesPass) {
  const auto compiled =
      core::compile_scenario(Scenario::parse_text(kRunnableScenario));

  auto lockstep_options = compiled.options;
  lockstep_options.jump_empty_ticks = false;
  core::ShardedDelivery lockstep(compiled.content, lockstep_options);
  core::seed_scenario_peers(lockstep, compiled);
  lockstep.run(compiled.max_ticks);
  const auto baseline = core::harvest_scenario(lockstep);

  core::ShardedDelivery jump(compiled.content, compiled.options);
  core::seed_scenario_peers(jump, compiled);
  jump.run(compiled.max_ticks);
  const auto jumped = core::harvest_scenario(jump);

  EXPECT_TRUE(baseline.same_trajectory(jumped))
      << "event-loop jump diverged from lockstep";
  EXPECT_EQ(baseline.ticks_skipped, 0u);
  EXPECT_GT(jumped.ticks_skipped, 0u) << "the jump driver must actually jump";

  EXPECT_EQ(baseline.peer_count, 7u) << "both ramped joiners must arrive";
  const auto verdict = core::evaluate_gates(baseline, compiled);
  EXPECT_TRUE(verdict.survivors_completed);
  EXPECT_TRUE(verdict.deadline_met);
  EXPECT_TRUE(verdict.failures_within_budget);
  EXPECT_TRUE(verdict.control_within_budget);
  EXPECT_TRUE(verdict.pass());
}

TEST(ScenarioGatesEval, EachGateTripsIndependently) {
  core::CompiledScenario compiled;
  compiled.max_ticks = 1000;
  compiled.gates.max_failed_sessions = 1;
  compiled.gates.control_budget_bytes = 100;

  core::ScenarioOutcome outcome;
  outcome.peer_count = 2;
  outcome.completion_ticks = {40, 60};
  outcome.down_at_end = {false, false};
  outcome.failed_sessions = 1;
  outcome.control_bytes = 100;
  EXPECT_TRUE(core::evaluate_gates(outcome, compiled).pass());

  auto late = outcome;
  compiled.gates.deadline_ticks = 50;
  EXPECT_FALSE(core::evaluate_gates(late, compiled).deadline_met);
  compiled.gates.deadline_ticks = 0;

  auto stranded = outcome;
  stranded.completion_ticks[1] = 0;
  const auto verdict = core::evaluate_gates(stranded, compiled);
  EXPECT_FALSE(verdict.survivors_completed);
  // ...unless that peer is down at the end (crash without restart).
  stranded.down_at_end[1] = true;
  EXPECT_TRUE(core::evaluate_gates(stranded, compiled).survivors_completed);

  auto failures = outcome;
  failures.failed_sessions = 2;
  EXPECT_FALSE(core::evaluate_gates(failures, compiled).failures_within_budget);

  auto chatty = outcome;
  chatty.control_bytes = 101;
  EXPECT_FALSE(core::evaluate_gates(chatty, compiled).control_within_budget);
  compiled.gates.control_budget_bytes = 0;  // 0 disables the budget
  EXPECT_TRUE(core::evaluate_gates(chatty, compiled).control_within_budget);
}

}  // namespace
}  // namespace icd
