// Sharded delivery engine scaling: a 64-peer swarm downloading one piece
// of content, run on 1/2/4/8 worker shards of core::ShardedDelivery. Emits
// BENCH_delivery.json.
//
// Two scaling views are reported:
//   * wall-clock speedup — honest elapsed time; meaningful when the
//     machine has at least as many cores as shards;
//   * critical-path speedup — the work model baseline_wall /
//     (serial_part + max per-shard thread-CPU time), which is what the
//     wall clock converges to on a sufficiently parallel machine. On
//     boxes with fewer cores than shards (CI runners, laptops in
//     containers) this is the only view that can show scaling, and the
//     JSON labels which basis the headline speedup uses.
//
// Also checks that on a timed swarm the event-loop jump reproduces the
// lockstep trajectory exactly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/sharded_delivery.hpp"

namespace {

using namespace icd;

std::vector<std::uint8_t> make_content(std::size_t bytes) {
  std::vector<std::uint8_t> content(bytes);
  util::Xoshiro256 rng(0xc0ffee);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng());
  return content;
}

core::DeliveryOptions delivery_options() {
  core::DeliveryOptions options;
  options.block_size = 512;
  options.max_peer_sessions = 2;
  options.refresh_interval = 40;
  return options;
}

struct SwarmRun {
  bool completed = false;
  std::size_t ticks = 0;
  double wall_ms = 0.0;
  /// Sum over peers of distinct encoded symbols absorbed — the "work" the
  /// throughput figures are normalized by.
  std::size_t symbols = 0;
  double serial_ms = 0.0;    // wall time outside the parallel phases
  double max_busy_ms = 0.0;  // busiest shard's thread-CPU time
};

/// Ticks the swarm until every peer holds the content or max_ticks pass.
void drive(core::ShardedDelivery& service, std::size_t peers,
           std::size_t origin_fed, std::size_t max_ticks, SwarmRun& run) {
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("peer" + std::to_string(p), p < origin_fed);
  }
  const auto all_complete = [&] {
    for (std::size_t p = 0; p < peers; ++p) {
      if (!service.peer_complete(p)) return false;
    }
    return true;
  };
  for (std::size_t t = 0; t < max_ticks && !all_complete(); ++t) {
    service.tick();
  }
  run.ticks = service.ticks();
  run.completed = all_complete();
  for (std::size_t p = 0; p < peers; ++p) {
    run.symbols += service.peer(p).symbol_count();
  }
}

SwarmRun run_swarm(const std::vector<std::uint8_t>& content,
                   std::size_t shards, std::size_t peers,
                   std::size_t max_ticks) {
  SwarmRun run;
  core::ShardOptions shard_options;
  shard_options.shards = shards;
  core::ShardedDelivery service(content, delivery_options(), shard_options);
  service.add_mirror();
  const auto start = std::chrono::steady_clock::now();
  drive(service, peers, /*origin_fed=*/peers / 4, max_ticks, run);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  run.serial_ms =
      run.wall_ms - static_cast<double>(service.parallel_wall_ns()) / 1e6;
  for (const std::uint64_t ns : service.shard_busy_ns()) {
    run.max_busy_ms = std::max(run.max_busy_ms, static_cast<double>(ns) / 1e6);
  }
  return run;
}

/// Timed-swarm run for the event-loop section: every link carries RTT,
/// jitter and a token-bucket pace, so empty tick spans exist for run() to
/// jump. `jump` off = the lockstep tick loop (the PR 4 behavior).
struct TimedRun {
  bool completed = false;
  std::size_t ticks = 0;
  double wall_ms = 0.0;
  std::vector<std::size_t> completion_ticks;
  std::uint64_t ticks_skipped = 0;
  std::size_t control_bytes = 0;
  std::size_t data_bytes = 0;
};

TimedRun run_timed_swarm(const std::vector<std::uint8_t>& content,
                         std::size_t peers, std::size_t max_ticks,
                         bool jump) {
  core::DeliveryOptions options = delivery_options();
  options.jump_empty_ticks = jump;
  options.link.loss_rate = 0.05;
  options.link.delay_ticks = 8;
  options.link.jitter_ticks = 2;
  options.link.rate_bytes_per_tick = 150.0;  // ~1 data frame per 4 ticks
  core::ShardedDelivery service(content, options, core::ShardOptions{1});
  service.add_mirror();
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("peer" + std::to_string(p), p < peers / 4);
  }
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  run.completed = service.run(max_ticks);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  run.ticks = service.ticks();
  run.completion_ticks.resize(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    run.completion_ticks[p] = service.peer_completion_tick(p);
  }
  run.ticks_skipped = service.ticks_skipped();
  const auto totals = service.link_totals();
  run.control_bytes = totals.control_bytes;
  run.data_bytes = totals.data_bytes;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = icd::bench::smoke_mode(argc, argv);
  const std::size_t peers = smoke ? 8 : 64;
  const std::size_t content_bytes = smoke ? 16 * 1024 : 96 * 1024;
  const std::size_t max_ticks = smoke ? 4000 : 20000;
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};

  const auto content = make_content(content_bytes);
  icd::bench::JsonReport report;
  report.add_string("bench", "delivery_shard_scaling");
  report.add_string("mode", smoke ? "smoke" : "full");
  report.add("peers", peers);
  report.add("content_bytes", content_bytes);
  report.add("hw_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));

  std::printf("%8s %10s %12s %12s %12s %10s\n", "shards", "ticks", "wall ms",
              "serial ms", "max busy ms", "complete");
  double base_wall = 0.0;
  double wall_speedup_at_8 = 0.0;
  double model_speedup_at_8 = 0.0;
  for (const std::size_t shards : shard_counts) {
    const SwarmRun run = run_swarm(content, shards, peers, max_ticks);
    std::printf("%8zu %10zu %12.1f %12.1f %12.1f %10s\n", shards, run.ticks,
                run.wall_ms, run.serial_ms, run.max_busy_ms,
                run.completed ? "yes" : "NO");
    const std::string prefix = "shards" + std::to_string(shards);
    report.add(prefix + "_wall_ms", run.wall_ms);
    report.add(prefix + "_ticks", run.ticks);
    report.add(prefix + "_symbols", run.symbols);
    report.add(prefix + "_completed", run.completed ? std::size_t{1}
                                                    : std::size_t{0});
    report.add(prefix + "_sym_per_sec",
               run.wall_ms > 0
                   ? static_cast<double>(run.symbols) / (run.wall_ms / 1e3)
                   : 0.0);
    if (shards == 1) {
      base_wall = run.wall_ms;
    } else {
      // The parallel-machine model: serial part + the busiest shard's CPU
      // time is what the wall clock becomes once every shard has a core.
      const double modeled = run.serial_ms + run.max_busy_ms;
      const double wall_speedup =
          run.wall_ms > 0 ? base_wall / run.wall_ms : 0.0;
      const double model_speedup = modeled > 0 ? base_wall / modeled : 0.0;
      report.add(prefix + "_wall_speedup", wall_speedup);
      report.add(prefix + "_critical_path_ms", modeled);
      report.add(prefix + "_critical_path_speedup", model_speedup);
      if (shards == shard_counts.back()) {
        wall_speedup_at_8 = wall_speedup;
        model_speedup_at_8 = model_speedup;
      }
    }
  }

  // Event loop on a timed swarm: run() jumps empty tick spans; the
  // trajectory must equal the lockstep tick loop's exactly, and the jump
  // accounting (ticks_skipped) plus the wall ratio is tracked here.
  bool matches = false;
  {
    const std::size_t timed_max = max_ticks * 4;
    const TimedRun lockstep =
        run_timed_swarm(content, peers, timed_max, /*jump=*/false);
    const TimedRun jumped =
        run_timed_swarm(content, peers, timed_max, /*jump=*/true);
    matches = lockstep.completion_ticks == jumped.completion_ticks &&
              lockstep.control_bytes == jumped.control_bytes &&
              lockstep.data_bytes == jumped.data_bytes;
    const double speedup =
        jumped.wall_ms > 0.0 ? lockstep.wall_ms / jumped.wall_ms : 0.0;
    report.add("timed_eventloop_matches_lockstep",
               matches ? std::size_t{1} : std::size_t{0});
    report.add("timed_completed",
               jumped.completed ? std::size_t{1} : std::size_t{0});
    report.add("timed_ticks", jumped.ticks);
    report.add("timed_ticks_skipped", jumped.ticks_skipped);
    report.add("timed_wall_speedup", speedup);
    std::printf(
        "timed swarm (event loop): %zu ticks, %zu skipped, "
        "%.2fx vs lockstep, trajectory %s\n",
        jumped.ticks, static_cast<std::size_t>(jumped.ticks_skipped), speedup,
        matches ? "EXACT" : "MISMATCH");
  }

  // Headline speedup: wall clock when the machine can actually run all
  // shards concurrently, the critical-path model otherwise.
  const std::size_t cores = std::thread::hardware_concurrency();
  const bool use_wall = cores >= shard_counts.back();
  report.add_string("speedup_basis", use_wall ? "wall_clock" : "critical_path");
  report.add("speedup_max_shards",
             use_wall ? wall_speedup_at_8 : model_speedup_at_8);
  std::printf("speedup at %zu shards: %.2fx (%s basis, %zu hw threads)\n",
              shard_counts.back(),
              use_wall ? wall_speedup_at_8 : model_speedup_at_8,
              use_wall ? "wall clock" : "critical path", cores);

  report.write("BENCH_delivery.json");
  return matches ? 0 : 1;
}
