// Fault-tolerant delivery under churn: one fault schedule (crash + restart,
// stall window, flash-crowd join, link blackout) over timed Gilbert-Elliott
// burst-loss links, run lockstep and jumped at 1 and 2 shards. Emits
// BENCH_churn.json.
//
// Three claims are measured and gated:
//   * fault_determinism — with faults enabled, the event-loop jump
//     reproduces the lockstep run exactly at shards = 1 and at shards = 2,
//     and the two shard counts give one trajectory (the jump and
//     shard-count contracts survive churn);
//   * all_survivors_completed — every peer that is up at the end of the
//     schedule finishes its download (churn never strands the swarm);
//   * max_stall_ticks — after a sender crashes mid-transfer, its receivers
//     flag the silence within the liveness timeout plus scheduling slack
//     (bounded failure detection, not an indefinite hang).
// Also reported (untracked): the Recode-vs-Random completion gap under
// burst loss — recoded symbols keep their usefulness when losses arrive in
// bursts, the paper's robustness argument for recoding.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"

namespace {

using namespace icd;

std::vector<std::uint8_t> make_content(std::size_t bytes) {
  std::vector<std::uint8_t> content(bytes);
  util::Xoshiro256 rng(0xc412 ^ 0x5eed);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng());
  return content;
}

/// Timed links with Gilbert-Elliott burst loss — the substrate every churn
/// run shares.
core::DeliveryOptions churn_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 71;
  options.refresh_interval = 50;
  options.handshake_retry_ticks = 24;
  options.link.mtu = 600;
  options.link.delay_ticks = 2;
  options.link.jitter_ticks = 1;
  options.link.rate_bytes_per_tick = 1200.0;
  options.link.ge_loss_good = 0.01;
  options.link.ge_loss_bad = 0.5;
  options.link.ge_p_good_bad = 0.02;
  options.link.ge_p_bad_good = 0.2;
  options.liveness_timeout_ticks = 30;
  options.handshake_backoff_factor = 2;
  options.handshake_backoff_cap_ticks = 64;
  options.max_handshake_retries = 6;
  options.suspect_ttl_ticks = 60;
  return options;
}

std::shared_ptr<core::FaultPlan> churn_plan() {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({120, 3});
  plan->restarts.push_back({300, 3});
  plan->stalls.push_back({150, 250, 4});
  plan->joins.push_back({200, 2, false});
  plan->blackouts.push_back({100, 180, 0, 1});
  return plan;
}

struct ChurnRun {
  bool completed = false;
  std::size_t peer_count = 0;
  std::vector<std::size_t> completion_ticks;
  std::size_t control_bytes = 0;
  std::size_t data_bytes = 0;
  std::size_t data_frames = 0;
  std::size_t failed_sessions = 0;
  std::uint64_t ticks_skipped = 0;
};

ChurnRun harvest(const core::ShardedDelivery& service) {
  ChurnRun run;
  run.peer_count = service.peer_count();
  run.completed = true;
  for (std::size_t p = 0; p < run.peer_count; ++p) {
    run.completion_ticks.push_back(service.peer_completion_tick(p));
    run.completed = run.completed && service.peer_complete(p);
    run.failed_sessions += service.session_result(p).failed_peers.size();
  }
  const auto totals = service.link_totals();
  run.control_bytes = totals.control_bytes;
  run.data_bytes = totals.data_bytes;
  run.data_frames = totals.data_frames;
  run.ticks_skipped = service.ticks_skipped();
  return run;
}

void add_peers(core::ShardedDelivery& service, std::size_t peers,
               std::size_t fed) {
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("peer" + std::to_string(p), p < fed);
  }
}

/// Lockstep tick loop that keeps going until every scheduled fault fired
/// (the restart at tick 300 is the last) and every peer — including the
/// flash-crowd joiners — completed.
void drive_lockstep(core::ShardedDelivery& service, std::size_t max_ticks) {
  for (std::size_t t = 0; t < max_ticks; ++t) {
    service.tick();
    if (service.ticks() <= 300) continue;
    bool all = true;
    for (std::size_t p = 0; p < service.peer_count(); ++p) {
      all = all && service.peer_complete(p);
    }
    if (all) return;
  }
}

bool same_trajectory(const ChurnRun& a, const ChurnRun& b) {
  return a.peer_count == b.peer_count &&
         a.completion_ticks == b.completion_ticks &&
         a.control_bytes == b.control_bytes && a.data_bytes == b.data_bytes &&
         a.data_frames == b.data_frames &&
         a.failed_sessions == b.failed_sessions;
}

/// Crash-detection latency: a fed sender crashes mid-epoch (offset from
/// the refresh boundary so its sessions are mid-transfer) and never comes
/// back. Returns the worst crash-to-diagnostic latency over all receivers,
/// plus whether every survivor still completed.
struct StallProbe {
  std::uint64_t max_stall_ticks = 0;
  bool detected = false;
  bool survivors_completed = false;
};

StallProbe probe_crash_stall(const std::vector<std::uint8_t>& content,
                             std::size_t max_ticks) {
  constexpr std::size_t kCrashedPeer = 1;
  constexpr std::uint64_t kCrashTick = 80;
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 72;
  options.refresh_interval = 60;
  options.liveness_timeout_ticks = 25;
  options.handshake_backoff_factor = 2;
  options.handshake_backoff_cap_ticks = 32;
  options.max_handshake_retries = 5;
  options.suspect_ttl_ticks = 60;
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({kCrashTick, kCrashedPeer});
  options.faults = std::move(plan);

  core::ShardedDelivery service(content, options);
  add_peers(service, 4, 2);

  StallProbe probe;
  std::vector<std::size_t> seen_failures(4, 0);
  for (std::size_t t = 0; t < max_ticks; ++t) {
    service.tick();
    for (std::size_t p = 0; p < 4; ++p) {
      if (p == kCrashedPeer) continue;
      const auto result = service.session_result(p);
      for (std::size_t i = seen_failures[p]; i < result.failed_peers.size();
           ++i) {
        const auto& failed = result.failed_peers[i];
        if (failed.peer != kCrashedPeer || failed.tick < kCrashTick) continue;
        probe.detected = true;
        probe.max_stall_ticks =
            std::max(probe.max_stall_ticks, failed.tick - kCrashTick);
      }
      seen_failures[p] = result.failed_peers.size();
    }
    bool survivors = true;
    for (std::size_t p = 0; p < 4; ++p) {
      survivors = survivors && (p == kCrashedPeer || service.peer_complete(p));
    }
    if (survivors && probe.detected) {
      probe.survivors_completed = true;
      break;
    }
  }
  return probe;
}

/// Strategy comparison under burst loss: the same swarm, Recode vs Random,
/// untimed GE links. Recoded symbols survive the burst structure better —
/// the completion gap is the report's robustness headline.
std::size_t strategy_completion_total(const std::vector<std::uint8_t>& content,
                                      overlay::Strategy strategy,
                                      std::size_t max_ticks) {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 73;
  options.refresh_interval = 40;
  options.strategy = strategy;
  options.link.ge_loss_good = 0.02;
  options.link.ge_loss_bad = 0.6;
  options.link.ge_p_good_bad = 0.03;
  options.link.ge_p_bad_good = 0.15;
  core::ShardedDelivery service(content, options);
  add_peers(service, 5, 1);
  service.run(max_ticks);
  std::size_t total = 0;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    const std::size_t tick = service.peer_completion_tick(p);
    total += tick != 0 ? tick : max_ticks;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = icd::bench::smoke_mode(argc, argv);
  const std::size_t content_bytes = smoke ? 64 * 24 : 64 * 48;
  const std::size_t peers = smoke ? 6 : 8;
  const std::size_t max_ticks = smoke ? 30000 : 60000;
  const auto content = make_content(content_bytes);

  icd::bench::JsonReport report;
  report.add_string("bench", "fault_churn");
  report.add_string("mode", smoke ? "smoke" : "full");
  report.add("peers", peers);
  report.add("content_bytes", content_bytes);

  // --- Determinism under churn: lockstep vs jump at 1 and 2 shards -------
  // Both shard counts run the same two-phase tick, so all four runs must
  // give one trajectory: at each count the event-loop jump reproduces the
  // lockstep run, and the two counts agree.
  const auto run_churn = [&](std::size_t shards, bool jump) {
    auto options = churn_options();
    options.faults = churn_plan();
    core::ShardedDelivery service(content, options,
                                  core::ShardOptions{shards});
    add_peers(service, peers, 2);
    if (jump) {
      service.run(max_ticks);
    } else {
      drive_lockstep(service, max_ticks);
    }
    return harvest(service);
  };
  const ChurnRun baseline = run_churn(1, /*jump=*/false);
  const ChurnRun jumped = run_churn(1, /*jump=*/true);
  const ChurnRun sharded2_base = run_churn(2, /*jump=*/false);
  const ChurnRun sharded2 = run_churn(2, /*jump=*/true);

  const bool deterministic = same_trajectory(baseline, jumped) &&
                             same_trajectory(sharded2_base, sharded2) &&
                             same_trajectory(baseline, sharded2_base);
  const bool churn_completed = baseline.completed && jumped.completed &&
                               sharded2_base.completed && sharded2.completed;
  std::printf(
      "churn determinism (shards1 jump==lockstep, shards2 jump==lockstep, "
      "shards1==shards2): %s\n",
      deterministic ? "EXACT" : "MISMATCH");
  std::printf("churn swarm: %zu peers (%zu joined), completed=%s, "
              "%zu failed sessions, %zu data B\n",
              baseline.peer_count, baseline.peer_count - peers,
              churn_completed ? "yes" : "NO", baseline.failed_sessions,
              baseline.data_bytes);
  report.add("fault_determinism",
             deterministic ? std::size_t{1} : std::size_t{0});
  report.add("churn_completed", churn_completed ? std::size_t{1}
                                                : std::size_t{0});
  report.add("churn_peer_count", baseline.peer_count);
  report.add("churn_failed_sessions", baseline.failed_sessions);
  report.add("churn_data_bytes", baseline.data_bytes);
  report.add("churn_control_bytes", baseline.control_bytes);
  report.add("churn_ticks_skipped", jumped.ticks_skipped);

  // --- Crash-detection latency -------------------------------------------
  const StallProbe probe = probe_crash_stall(content, max_ticks);
  // Liveness timeout plus sweep/scheduling slack: detection must not slip
  // into "wait for the next refresh epoch" territory.
  const std::uint64_t stall_bound = 25 + 15;
  std::printf("crash detection: stall=%llu ticks (bound %llu), "
              "survivors %s\n",
              static_cast<unsigned long long>(probe.max_stall_ticks),
              static_cast<unsigned long long>(stall_bound),
              probe.survivors_completed ? "completed" : "INCOMPLETE");
  report.add("max_stall_ticks",
             static_cast<std::size_t>(probe.max_stall_ticks));
  report.add("stall_bound", static_cast<std::size_t>(stall_bound));
  report.add("stall_detected", probe.detected ? std::size_t{1}
                                              : std::size_t{0});
  const bool survivors_ok = probe.survivors_completed && churn_completed;
  report.add("all_survivors_completed",
             survivors_ok ? std::size_t{1} : std::size_t{0});

  // --- Recode vs Random under burst loss (reported, not gated) -----------
  const std::size_t recode_total = strategy_completion_total(
      content, overlay::Strategy::kRecode, max_ticks);
  const std::size_t random_total = strategy_completion_total(
      content, overlay::Strategy::kRandom, max_ticks);
  std::printf("burst-loss completion (sum of ticks): recode=%zu "
              "random=%zu (ratio %.3f)\n",
              recode_total, random_total,
              random_total > 0 ? static_cast<double>(recode_total) /
                                     static_cast<double>(random_total)
                               : 0.0);
  report.add("recode_completion_ticks_total", recode_total);
  report.add("random_completion_ticks_total", random_total);

  report.write("BENCH_churn.json");
  const bool ok = deterministic && survivors_ok && probe.detected &&
                  probe.max_stall_ticks <= stall_bound;
  return ok ? 0 : 1;
}
