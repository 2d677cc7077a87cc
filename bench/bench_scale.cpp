// Scale curve for the delivery engine: swarm sizes 1k / 10k / 100k through
// the sharded engine with sampled admission and per-peer jump planning.
// Emits BENCH_scale.json.
//
// Per swarm size the harness reports:
//   * peers_per_sec_per_core — admitted peers divided by wall-clock seconds
//     and by worker shards (the headline "how big a swarm fits a box"
//     figure);
//   * peer_ticks_per_sec_per_core — peer-ticks of simulation work per
//     second per shard (throughput independent of completion time);
//   * plans_per_tick — peers holding a planned tick after each executed
//     tick, summed and divided by the ticks (the receive phase plans
//     every peer, so this is at most the swarm size);
//   * bytes_per_peer — the engine's memory audit at the end of the run
//     (decoders + endpoints + links over admitted peers).
//
// Two claims are gated in CI (which runs --smoke: the 1k point only):
//   * scale_determinism — two identical 1k runs produce byte-identical
//     completion trajectories and link totals;
//   * scale_1k_completed — the 1k swarm runs to full completion.
// The 10k point completes too; the 100k point is tick-bounded (partial
// progress is expected — the curve is about throughput, not completion).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/delivery.hpp"
#include "core/sharded_delivery.hpp"

namespace {

using namespace icd;

std::vector<std::uint8_t> make_content(std::size_t bytes) {
  std::vector<std::uint8_t> content(bytes);
  util::Xoshiro256 rng(0x5ca1e ^ 0x5eed);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng());
  return content;
}

/// Small content, timed links, sampled admission: the per-peer work is
/// deliberately light so the harness measures engine overhead (planning,
/// placement, link servicing), not codec throughput.
core::DeliveryOptions scale_options() {
  core::DeliveryOptions options;
  options.block_size = 256;
  options.session_seed = 97;
  options.refresh_interval = 40;
  options.admission_sample = 4;
  options.link.delay_ticks = 1;
  return options;
}

struct ScalePoint {
  std::size_t peers = 0;
  std::size_t ticks = 0;
  std::size_t completed = 0;
  bool all_complete = false;
  double seconds = 0.0;
  double plans_per_tick = 0.0;
  double bytes_per_peer = 0.0;
  std::vector<std::size_t> completion_ticks;
  std::uint64_t data_bytes = 0;
  std::uint64_t control_bytes = 0;
};

ScalePoint run_swarm(const std::vector<std::uint8_t>& content,
                     std::size_t peers, std::size_t shards,
                     std::size_t max_ticks) {
  core::ShardedDelivery service(content, scale_options(),
                                core::ShardOptions{shards});
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("p" + std::to_string(p), p % 8 == 0);
  }
  const auto start = std::chrono::steady_clock::now();
  service.run(max_ticks);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ScalePoint point;
  point.peers = peers;
  point.ticks = service.ticks();
  point.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  point.completion_ticks.reserve(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    point.completed += service.peer_complete(p) ? 1 : 0;
    point.completion_ticks.push_back(service.peer_completion_tick(p));
  }
  point.all_complete = point.completed == peers;
  if (point.ticks > 0) {
    point.plans_per_tick =
        static_cast<double>(service.planner_stats().ops()) /
        static_cast<double>(point.ticks);
  }
  point.bytes_per_peer = service.memory_audit().bytes_per_peer();
  const auto totals = service.link_totals();
  point.data_bytes = totals.data_bytes;
  point.control_bytes = totals.control_bytes;
  return point;
}

void report_point(bench::JsonReport& report, const std::string& tag,
                  const ScalePoint& point, std::size_t shards) {
  const double denom =
      point.seconds > 0.0 ? point.seconds * static_cast<double>(shards) : 1.0;
  const double peers_per_sec_per_core =
      static_cast<double>(point.peers) / denom;
  const double peer_ticks_per_sec_per_core =
      static_cast<double>(point.peers) * static_cast<double>(point.ticks) /
      denom;
  std::printf("%8zu peers: %7.2fs %4zu ticks  %10.0f peers/s/core  "
              "%12.0f peer-ticks/s/core  %7.1f plans/tick  %8.0f B/peer  "
              "completed %zu/%zu\n",
              point.peers, point.seconds, point.ticks, peers_per_sec_per_core,
              peer_ticks_per_sec_per_core, point.plans_per_tick,
              point.bytes_per_peer, point.completed, point.peers);
  report.add("scale_" + tag + "_peers", point.peers);
  report.add("scale_" + tag + "_ticks", point.ticks);
  report.add("scale_" + tag + "_seconds", point.seconds);
  report.add("scale_" + tag + "_peers_per_sec_per_core",
             peers_per_sec_per_core);
  report.add("scale_" + tag + "_peer_ticks_per_sec_per_core",
             peer_ticks_per_sec_per_core);
  report.add("scale_" + tag + "_plans_per_tick", point.plans_per_tick);
  report.add("scale_" + tag + "_bytes_per_peer", point.bytes_per_peer);
  report.add("scale_" + tag + "_completed",
             point.all_complete ? std::size_t{1} : std::size_t{0});
  report.add("scale_" + tag + "_completed_peers", point.completed);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t shards = bench::shards_arg(argc, argv);
  const auto content = make_content(1024);
  bench::JsonReport report;
  bench::print_header("delivery engine scale curve");
  report.add("scale_shards", shards);

  // Determinism gate: the 1k point twice, byte-for-byte.
  const ScalePoint first = run_swarm(content, 1000, shards, 20000);
  const ScalePoint second = run_swarm(content, 1000, shards, 20000);
  const bool deterministic =
      first.completion_ticks == second.completion_ticks &&
      first.data_bytes == second.data_bytes &&
      first.control_bytes == second.control_bytes &&
      first.ticks == second.ticks;
  report_point(report, "1k", first, shards);
  std::printf("1k determinism (trajectory + link totals): %s\n",
              deterministic ? "EXACT" : "MISMATCH");
  report.add("scale_determinism",
             deterministic ? std::size_t{1} : std::size_t{0});

  if (!smoke) {
    const ScalePoint mid = run_swarm(content, 10000, shards, 20000);
    report_point(report, "10k", mid, shards);
    // Tick-bounded: throughput sample, completion not expected.
    const ScalePoint top = run_swarm(content, 100000, shards, 200);
    report_point(report, "100k", top, shards);
  }

  report.write("BENCH_scale.json");
  return deterministic && first.all_complete ? 0 : 1;
}
