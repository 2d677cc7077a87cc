// Golden engine trajectories: the pin on the delivery engine's history.
//
// tests/golden/engine_trajectories.txt holds one line per case: per-peer
// completion ticks, the five cumulative LinkTotals fields, every abandoned
// download session (receiver, sender, tick, reason) and an FNV-1a hash of
// each peer's content (0 while it has none) — integers only, nothing
// wall-clock. Every case is replayed on ShardedDelivery at shards = 1 and
// at shards = 2, each lockstep (jump_empty_ticks = false) and with the
// event-loop jump; all four runs must reproduce its line exactly, which
// pins the single-threaded run to the pooled one. The two shard counts
// must also end on the same tick with the same ticks skipped.
//
// The lines were recorded from the 2-shard engine (lockstep and jumped
// agreed) while shards = 1 still ran a separate inline schedule; the
// shards = 1 run of the shared two-phase tick reproduces every one.
//
// The cases: the configurations of the former shards=1-vs-legacy equality
// tests, two fault_test swarms whose receivers abandon sessions (so the
// failure records are pinned too), scenario_test's inline scenario, all
// five strategies on scheduler_test's paced timed swarm, and every
// scenario in scenarios/. A case without a line, or a line naming no
// case, fails the suite. On a mismatch the failure prints the recomputed
// line; an intended trajectory change is re-pinned by pasting it into the
// file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/sharded_delivery.hpp"
#include "overlay/strategy.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

const std::string kRepoDir = ICD_REPO_DIR;

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

/// One recorded run: the engine inputs and the tick horizon run() gets.
struct GoldenCase {
  std::string name;
  std::vector<std::uint8_t> content;
  core::DeliveryOptions options;
  std::size_t mirrors = 0;
  std::size_t peers = 0;
  std::size_t fed = 0;  // peers 0..fed-1 subscribe to an origin
  std::string peer_prefix = "p";
  std::uint64_t max_ticks = 0;
};

// --- Case configurations ----------------------------------------------------

core::DeliveryOptions small_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 13;
  options.refresh_interval = 25;
  return options;
}

core::DeliveryOptions timed_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 29;
  options.refresh_interval = 40;
  options.flow_control = true;
  options.link.loss_rate = 0.06;
  options.link.reorder_rate = 0.05;
  options.link.mtu = 600;
  options.link.delay_ticks = 2;
  options.link.jitter_ticks = 1;
  options.link.rate_bytes_per_tick = 1800.0;
  return options;
}

core::DeliveryOptions jumpy_options(overlay::Strategy strategy) {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 41;
  options.refresh_interval = 60;
  options.flow_control = true;
  options.strategy = strategy;
  options.handshake_retry_ticks = 24;
  options.link.loss_rate = 0.06;
  options.link.reorder_rate = 0.05;
  options.link.mtu = 600;
  options.link.delay_ticks = 6;
  options.link.jitter_ticks = 2;
  options.link.rate_bytes_per_tick = 250.0;
  return options;
}

/// The paced swarm plus a crash/restart, a stall, a join and a blackout.
core::DeliveryOptions timed_fault_options() {
  auto options = jumpy_options(overlay::Strategy::kRecodeBloom);
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({120, 3});
  plan->restarts.push_back({300, 3});
  plan->stalls.push_back({150, 250, 2});
  plan->joins.push_back({200, 1, false});
  plan->blackouts.push_back({80, 160, 0, 1});
  options.faults = std::move(plan);
  options.liveness_timeout_ticks = 30;
  options.handshake_backoff_factor = 2;
  options.handshake_backoff_cap_ticks = 64;
  options.max_handshake_retries = 6;
  options.suspect_ttl_ticks = 60;
  return options;
}

/// Untimed links with liveness timeouts and bounded handshake retries.
core::DeliveryOptions fault_options(std::shared_ptr<core::FaultPlan> plan) {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 51;
  options.refresh_interval = 25;
  options.faults = std::move(plan);
  options.liveness_timeout_ticks = 12;
  options.handshake_backoff_factor = 2;
  options.handshake_backoff_cap_ticks = 32;
  options.max_handshake_retries = 4;
  options.suspect_ttl_ticks = 40;
  return options;
}

/// Crash/restart, stall, join and blackout on the untimed fault links.
core::DeliveryOptions untimed_churn_options() {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 3});
  plan->restarts.push_back({75, 3});
  plan->stalls.push_back({40, 70, 4});
  plan->joins.push_back({50, 2, false});
  plan->blackouts.push_back({20, 60, 0, 2});
  return fault_options(std::move(plan));
}

/// The only source crashes for good: its receiver's liveness timeout fires.
core::DeliveryOptions dead_source_options() {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 0});
  return fault_options(std::move(plan));
}

/// The only edge is dark: the receiver exhausts its handshake retries.
core::DeliveryOptions dark_edge_options() {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->blackouts.push_back({0, 100000, 0, 1});
  auto options = fault_options(std::move(plan));
  options.handshake_retry_ticks = 4;
  options.handshake_backoff_cap_ticks = 16;
  options.refresh_interval = 100;
  return options;
}

/// scenario_test's runnable scenario, frozen here so the pin does not move
/// when that test's text does.
constexpr char kUnitMixedScenario[] = R"(name unit-mixed
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

GoldenCase scenario_case(const std::string& name,
                         const core::Scenario& scenario) {
  const auto compiled = core::compile_scenario(scenario);
  return GoldenCase{.name = name,
                    .content = compiled.content,
                    .options = compiled.options,
                    .peers = compiled.peers,
                    .fed = compiled.fed,
                    .peer_prefix = "peer",  // seed_scenario_peers' naming
                    .max_ticks = compiled.max_ticks};
}

std::vector<GoldenCase> golden_cases() {
  auto lossy = small_options();
  lossy.link.loss_rate = 0.08;
  lossy.link.reorder_rate = 0.1;
  lossy.link.mtu = 600;
  std::vector<GoldenCase> cases{
      {.name = "sharded:mirrored-swarm",
       .content = random_content(64 * 100, 21),
       .options = small_options(),
       .mirrors = 1,
       .peers = 6,
       .fed = 2,
       .max_ticks = 5000},
      {.name = "sharded:loss-reorder",
       .content = random_content(64 * 60, 22),
       .options = lossy,
       .peers = 5,
       .fed = 2,
       .max_ticks = 8000},
      {.name = "scheduler:timed-lossy",
       .content = random_content(64 * 60, 31),
       .options = timed_options(),
       .peers = 5,
       .fed = 2,
       .max_ticks = 12000},
      {.name = "scheduler:timed-faults",
       .content = random_content(64 * 40, 46),
       .options = timed_fault_options(),
       .peers = 5,
       .fed = 2,
       .max_ticks = 30000},
      {.name = "fault:untimed-churn",
       .content = random_content(64 * 40, 66),
       .options = untimed_churn_options(),
       .peers = 5,
       .fed = 2,
       .max_ticks = 10000},
      {.name = "fault:dead-source",
       .content = random_content(64 * 60, 62),
       .options = dead_source_options(),
       .peers = 2,
       .fed = 1,
       .max_ticks = 400},
      {.name = "fault:dark-edge",
       .content = random_content(64 * 40, 63),
       .options = dark_edge_options(),
       .peers = 2,
       .fed = 1,
       .max_ticks = 400},
  };
  for (const auto strategy : overlay::kAllStrategies) {
    cases.push_back(
        {.name = "jumpy:" + std::string(overlay::strategy_name(strategy)),
         .content = random_content(64 * 40, 43),
         .options = jumpy_options(strategy),
         .peers = 4,
         .fed = 2,
         .max_ticks = 30000});
  }
  cases.push_back(scenario_case(
      "scenario:unit-mixed", core::Scenario::parse_text(kUnitMixedScenario)));
  for (const auto& path : core::list_scenario_files(kRepoDir + "/scenarios")) {
    cases.push_back(
        scenario_case("catalog:" + std::filesystem::path(path).stem().string(),
                      core::Scenario::parse_file(path)));
  }
  return cases;
}

// --- Replay -----------------------------------------------------------------

/// One replayed case: its rendered line plus the clock it ended on and the
/// ticks the jump skipped on the way there.
struct Replay {
  std::string line;
  std::size_t ticks = 0;
  std::uint64_t ticks_skipped = 0;
};

/// Runs one case on a fresh engine and renders its line.
Replay replay(const GoldenCase& c, bool jump, std::size_t shards) {
  core::DeliveryOptions options = c.options;
  options.jump_empty_ticks = jump;
  core::ShardedDelivery engine(c.content, options, core::ShardOptions{shards});
  for (std::size_t m = 0; m < c.mirrors; ++m) engine.add_mirror();
  for (std::size_t p = 0; p < c.peers; ++p) {
    engine.add_peer(c.peer_prefix + std::to_string(p), p < c.fed);
  }
  engine.run(c.max_ticks);

  std::ostringstream line;
  line << c.name << " completion=";
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    line << (p ? "," : "") << engine.peer_completion_tick(p);
  }
  const auto totals = engine.link_totals();
  line << " totals=" << totals.control_bytes << ',' << totals.control_frames
       << ',' << totals.data_bytes << ',' << totals.data_frames << ','
       << totals.frames_refused << " failed=";
  bool any_failed = false;
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    for (const auto& failed : engine.session_result(p).failed_peers) {
      line << (any_failed ? "," : "") << p << ':' << failed.peer << '@'
           << failed.tick << '/' << static_cast<int>(failed.reason);
      any_failed = true;
    }
  }
  if (!any_failed) line << '-';
  line << " content=";
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    std::uint64_t hash = 0;  // a peer without the content has none
    if (engine.peer_complete(p)) {
      const auto content = engine.peer_content(p);
      hash = util::fnv1a(std::as_bytes(std::span(content)));
    }
    line << (p ? "," : "") << hash;
  }
  return Replay{line.str(), engine.ticks(), engine.ticks_skipped()};
}

/// Golden lines keyed by case name ('#' comments and blank lines skipped).
std::map<std::string, std::string> load_golden() {
  const std::string path = kRepoDir + "/tests/golden/engine_trajectories.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::string name = line.substr(0, line.find(' '));
    EXPECT_TRUE(lines.emplace(name, line).second)
        << "duplicate golden line for " << name;
  }
  return lines;
}

TEST(EngineGolden, EveryCaseHasALineAndEveryLineACase) {
  const auto golden = load_golden();
  std::set<std::string> names;
  for (const auto& c : golden_cases()) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate case " << c.name;
    EXPECT_TRUE(golden.count(c.name)) << "no golden line for " << c.name;
  }
  for (const auto& [name, line] : golden) {
    EXPECT_TRUE(names.count(name)) << "golden line names no case: " << name;
  }
}

/// Replays every case at shards 1 and 2 against its golden line. Both
/// shard counts must also end on the same tick having skipped the same
/// ticks: each shard plans its own peers, so the jump targets are pinned
/// across shard counts, not only the trajectories. Returns the ticks
/// skipped over all cases at shards = 1.
std::uint64_t expect_replays(bool jump) {
  const auto golden = load_golden();
  std::uint64_t skipped = 0;
  for (const auto& c : golden_cases()) {
    std::vector<Replay> runs;
    for (const std::size_t shards : {1u, 2u}) {
      runs.push_back(replay(c, jump, shards));
      const std::string& line = runs.back().line;
      const auto it = golden.find(c.name);
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden line for " << c.name << "; recomputed:\n"
                      << line;
        continue;
      }
      EXPECT_EQ(it->second, line)
          << (jump ? "jumped" : "lockstep") << " run at shards = " << shards
          << " diverged; recomputed:\n"
          << line;
    }
    EXPECT_EQ(runs[0].ticks, runs[1].ticks) << c.name;
    EXPECT_EQ(runs[0].ticks_skipped, runs[1].ticks_skipped) << c.name;
    skipped += runs[0].ticks_skipped;
  }
  return skipped;
}

TEST(EngineGolden, LockstepRunsReproduceEveryLine) {
  EXPECT_EQ(expect_replays(/*jump=*/false), 0u);
}

TEST(EngineGolden, JumpedRunsReproduceEveryLine) {
  // Some case must actually jump, or the shard-count pin above is vacuous.
  EXPECT_GT(expect_replays(/*jump=*/true), 0u);
}

}  // namespace
}  // namespace icd
