// The scenario-catalog gate runner: every `scenarios/*.scn` file is lowered
// by core::compile_scenario and run on the delivery engine at shards = 1
// twice — lockstep and with the event-loop jump — re-proving the
// fault-enabled determinism contract per catalog entry (lockstep == jump)
// and evaluating each scenario's declared pass gates (survivor completion
// inside the deadline, failed-session budget, control-byte budget) on the
// lockstep trajectory.
// Emits BENCH_scenarios.json (schema: docs/BENCHMARKS.md) and exits
// nonzero when any scenario misses a gate or any driver pair diverges, so
// CI fails on the exact scenario that regressed.
//
// Usage: bench_scenarios [--smoke] [--dir <catalog>]
// The catalog defaults to ./scenarios then ../scenarios (the build tree
// sits one level below the repo root).
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenario.hpp"
#include "core/sharded_delivery.hpp"

namespace {

using namespace icd;

std::string catalog_dir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0) return argv[i + 1];
  }
  if (std::filesystem::is_directory("scenarios")) return "scenarios";
  return "../scenarios";
}

struct ScenarioReport {
  std::string name;
  bool deterministic = false;
  core::GateVerdict verdict;
  core::ScenarioOutcome baseline;
  std::uint64_t ticks_skipped = 0;  // from the jump driver
};

ScenarioReport run_scenario(const core::CompiledScenario& compiled) {
  ScenarioReport report;
  report.name = compiled.name;

  auto lockstep_options = compiled.options;
  lockstep_options.jump_empty_ticks = false;
  core::ShardedDelivery lockstep(compiled.content, lockstep_options);
  core::seed_scenario_peers(lockstep, compiled);
  lockstep.run(compiled.max_ticks);
  report.baseline = core::harvest_scenario(lockstep);

  core::ShardedDelivery jump(compiled.content, compiled.options);
  core::seed_scenario_peers(jump, compiled);
  jump.run(compiled.max_ticks);
  const auto jumped = core::harvest_scenario(jump);

  report.deterministic = report.baseline.same_trajectory(jumped);
  report.ticks_skipped = jumped.ticks_skipped;
  report.verdict = core::evaluate_gates(report.baseline, compiled);
  return report;
}

std::size_t max_completion_tick(const core::ScenarioOutcome& outcome) {
  std::size_t worst = 0;
  for (std::size_t p = 0; p < outcome.peer_count; ++p) {
    if (!outcome.down_at_end[p]) {
      worst = std::max(worst, outcome.completion_ticks[p]);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = icd::bench::smoke_mode(argc, argv);
  const std::string dir = catalog_dir(argc, argv);

  std::vector<std::string> files;
  try {
    files = core::list_scenario_files(dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_scenarios: %s\n", error.what());
    return 1;
  }

  icd::bench::JsonReport report;
  report.add_string("bench", "scenarios");
  report.add_string("mode", smoke ? "smoke" : "full");
  report.add_string("catalog_dir", dir);

  bench::print_header(
      "scenario catalog: lockstep==jump determinism + pass gates");
  std::printf("%-28s %5s %7s %6s %8s %8s %6s  %s\n", "scenario", "peers",
              "worst", "fails", "ctl-B", "data-B", "skip", "verdict");

  bool all_deterministic = true;
  bool all_gates = true;
  std::size_t ran = 0;
  for (const auto& path : files) {
    ScenarioReport result;
    try {
      const auto compiled =
          core::compile_scenario(core::Scenario::parse_file(path));
      result = run_scenario(compiled);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bench_scenarios: %s: %s\n", path.c_str(),
                   error.what());
      return 1;
    }
    ++ran;
    const bool pass = result.verdict.pass();
    all_deterministic = all_deterministic && result.deterministic;
    all_gates = all_gates && pass;

    std::printf("%-28s %5zu %7zu %6zu %8zu %8zu %6llu  %s%s\n",
                result.name.c_str(), result.baseline.peer_count,
                max_completion_tick(result.baseline),
                result.baseline.failed_sessions,
                result.baseline.control_bytes, result.baseline.data_bytes,
                static_cast<unsigned long long>(result.ticks_skipped),
                result.deterministic ? "deterministic" : "DIVERGED",
                pass ? " pass" : " GATE-FAIL");

    const std::string prefix = "scenario_" + result.name + "_";
    report.add(prefix + "deterministic",
               result.deterministic ? std::size_t{1} : std::size_t{0});
    report.add(prefix + "gates_pass", pass ? std::size_t{1} : std::size_t{0});
    report.add(prefix + "survivors_completed",
               result.verdict.survivors_completed ? std::size_t{1}
                                                  : std::size_t{0});
    report.add(prefix + "peer_count", result.baseline.peer_count);
    report.add(prefix + "worst_completion_tick",
               max_completion_tick(result.baseline));
    report.add(prefix + "failed_sessions", result.baseline.failed_sessions);
    report.add(prefix + "control_bytes", result.baseline.control_bytes);
    report.add(prefix + "data_bytes", result.baseline.data_bytes);
    report.add(prefix + "ticks_skipped",
               static_cast<std::size_t>(result.ticks_skipped));
  }

  report.add("scenarios_total", ran);
  report.add("all_deterministic",
             all_deterministic ? std::size_t{1} : std::size_t{0});
  report.add("all_gates_pass", all_gates ? std::size_t{1} : std::size_t{0});
  report.write("BENCH_scenarios.json");

  std::printf("%zu scenarios: determinism %s, gates %s\n", ran,
              all_deterministic ? "EXACT" : "MISMATCH",
              all_gates ? "all pass" : "FAILURES");
  return all_deterministic && all_gates ? 0 : 1;
}
