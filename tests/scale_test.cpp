// Massive-swarm scale armor: the jump ≡ lockstep full-engine pin under
// loss + timing + faults with the per-peer planner in the loop, sampled
// admission determinism, and the post-completion memory budget (solver
// state released, bytes-per-peer bounded).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sharded_delivery.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

// --- Full-engine pin: jump ≡ lockstep with the per-peer planner -------------

core::DeliveryOptions timed_faulted_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 77;
  options.refresh_interval = 40;
  options.handshake_retry_ticks = 24;
  options.liveness_timeout_ticks = 60;
  options.suspect_ttl_ticks = 40;
  options.link.loss_rate = 0.06;
  options.link.delay_ticks = 2;
  options.link.jitter_ticks = 1;
  auto faults = std::make_shared<core::FaultPlan>();
  faults->crashes.push_back({30, 1});
  faults->restarts.push_back({90, 1});
  faults->stalls.push_back({50, 70, 2});
  faults->joins.push_back({60, 1, false});
  options.faults = faults;
  return options;
}

TEST(ScalePlanner, ShardedJumpEqualsLockstepUnderLossTimingAndFaults) {
  const auto content = random_content(6 * 1024, 99);
  constexpr std::size_t kPeers = 6;
  constexpr std::size_t kTicks = 3000;

  auto options = timed_faulted_options();
  options.jump_empty_ticks = false;
  core::ShardedDelivery lockstep(content, options, {.shards = 2});
  options.jump_empty_ticks = true;
  core::ShardedDelivery jumping(content, options, {.shards = 2});
  for (std::size_t p = 0; p < kPeers; ++p) {
    lockstep.add_peer("p" + std::to_string(p), p == 0);
    jumping.add_peer("p" + std::to_string(p), p == 0);
  }
  lockstep.run(kTicks);
  jumping.run(kTicks);

  ASSERT_EQ(lockstep.peer_count(), jumping.peer_count());
  for (std::size_t p = 0; p < lockstep.peer_count(); ++p) {
    EXPECT_EQ(lockstep.peer_complete(p), jumping.peer_complete(p)) << p;
    EXPECT_EQ(lockstep.peer_completion_tick(p),
              jumping.peer_completion_tick(p))
        << p;
    if (lockstep.peer_complete(p)) {
      EXPECT_EQ(lockstep.peer_content(p), jumping.peer_content(p)) << p;
    }
    const auto a = lockstep.session_result(p);
    const auto b = jumping.session_result(p);
    EXPECT_EQ(a.failed_peers.size(), b.failed_peers.size()) << p;
  }
  const auto lock_totals = lockstep.link_totals();
  const auto jump_totals = jumping.link_totals();
  EXPECT_EQ(lock_totals.control_bytes, jump_totals.control_bytes);
  EXPECT_EQ(lock_totals.data_bytes, jump_totals.data_bytes);
  EXPECT_EQ(lock_totals.control_frames, jump_totals.control_frames);
  EXPECT_EQ(lock_totals.data_frames, jump_totals.data_frames);
  // The per-peer planner was in the loop. This scenario feeds origins
  // every tick, so the jump driver legitimately finds no empty gaps to
  // skip — equality above is the real assertion.
  EXPECT_GT(jumping.planner_stats().pushes, 0u);
}

// --- Sampled admission ------------------------------------------------------

TEST(ScaleAdmission, SampledAdmissionCompletesAndIsDeterministic) {
  const auto content = random_content(4 * 1024, 7);
  constexpr std::size_t kPeers = 24;
  constexpr std::size_t kTicks = 4000;
  core::DeliveryOptions options;
  options.block_size = 128;
  options.session_seed = 5;
  options.refresh_interval = 30;
  options.admission_sample = 4;

  auto run = [&] {
    core::ShardedDelivery service(content, options);
    for (std::size_t p = 0; p < kPeers; ++p) {
      service.add_peer("p" + std::to_string(p), p % 8 == 0);
    }
    service.run(kTicks);
    std::vector<std::size_t> ticks;
    for (std::size_t p = 0; p < kPeers; ++p) {
      EXPECT_TRUE(service.peer_complete(p)) << p;
      ticks.push_back(service.peer_completion_tick(p));
    }
    return ticks;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// --- Memory budget ----------------------------------------------------------

TEST(ScaleMemory, AuditShrinksAfterCompletionAndBoundsBytesPerPeer) {
  const auto content = random_content(8 * 1024, 31);
  constexpr std::size_t kPeers = 8;
  core::DeliveryOptions options;
  options.block_size = 256;
  options.session_seed = 17;
  options.refresh_interval = 25;
  core::ShardedDelivery service(content, options);
  for (std::size_t p = 0; p < kPeers; ++p) {
    service.add_peer("p" + std::to_string(p), p == 0);
  }

  // Capture the audit mid-download (decoders and handshake caches live).
  std::size_t mid_total = 0;
  for (std::size_t t = 0; t < 5000; ++t) {
    service.tick();
    std::size_t incomplete = 0;
    for (std::size_t p = 0; p < kPeers; ++p) {
      incomplete += service.peer_complete(p) ? 0 : 1;
    }
    if (mid_total == 0 && incomplete <= kPeers / 2) {
      const auto audit = service.memory_audit();
      mid_total = audit.total();
      ASSERT_GT(audit.decoder_bytes, 0u);
    }
    if (incomplete == 0) break;
  }
  ASSERT_GT(mid_total, 0u) << "swarm never reached half-complete";
  for (std::size_t p = 0; p < kPeers; ++p) {
    ASSERT_TRUE(service.peer_complete(p)) << p;
  }
  // Tick past the next refresh so the teardown path compacts every
  // completed peer's solver state (run() short-circuits once the swarm is
  // complete; tick() still executes refresh boundaries).
  for (std::size_t t = 0; t <= options.refresh_interval; ++t) service.tick();

  const auto final_audit = service.memory_audit();
  EXPECT_EQ(final_audit.peers, kPeers);
  // Retired sessions: no endpoint or link state left at all.
  EXPECT_EQ(final_audit.endpoint_bytes, 0u);
  EXPECT_EQ(final_audit.link_bytes, 0u);
  // Solver state (equations, waiting lists, pending queues) released:
  // well under the mid-run footprint, and bounded per peer. The bound is
  // the regression pin — decoded blocks for 8 KiB of content plus the
  // symbol-id/sketch bookkeeping, far below the solver's working set.
  EXPECT_LT(final_audit.total(), mid_total);
  EXPECT_LT(final_audit.bytes_per_peer(), 64 * 1024u);
  // Completed peers still serve: their decoded content survives compaction.
  for (std::size_t p = 0; p < kPeers; ++p) {
    EXPECT_EQ(service.peer_content(p), content) << p;
  }
  // And the per-session result surfaces the per-peer figure.
  EXPECT_GT(service.session_result(0).memory_bytes, 0u);
  EXPECT_LT(service.session_result(0).memory_bytes, 64 * 1024u);
  // Solver op counters ride along: a completed peer fed equations through
  // both peeling levels and recovered at least every source block.
  const auto stats = service.session_result(0).decoder_stats;
  EXPECT_GT(stats.equations_added, 0u);
  EXPECT_GE(stats.recovered, service.parameters().block_count);
  EXPECT_GT(stats.substitutions, 0u);
}

}  // namespace
}  // namespace icd
