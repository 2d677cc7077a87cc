// Fault tolerance: the FaultPlan schedule and FaultTracker bookkeeping,
// Gilbert-Elliott burst loss, and the delivery engines' failure-recovery
// behavior — crash teardown with session resumption on restart, liveness
// timeouts and handshake-retry exhaustion surfacing in
// SessionResult::failed_peers, flash-crowd joins keeping run loops open,
// a multi-shard swarm surviving churn, and jumped runs stopping on every
// fault boundary (FaultJumpProbe).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"
#include "wire/channel.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

// --- FaultPlan queries ------------------------------------------------------

TEST(FaultPlan, CrashLastsUntilRestart) {
  core::FaultPlan plan;
  plan.crashes.push_back({10, 3});
  plan.restarts.push_back({40, 3});
  plan.crashes.push_back({70, 3});  // second crash, no restart

  EXPECT_FALSE(plan.crashed_at(3, 9));
  EXPECT_TRUE(plan.crashed_at(3, 10));
  EXPECT_TRUE(plan.crashed_at(3, 39));
  EXPECT_FALSE(plan.crashed_at(3, 40));
  EXPECT_FALSE(plan.crashed_at(3, 69));
  EXPECT_TRUE(plan.crashed_at(3, 70));
  EXPECT_TRUE(plan.crashed_at(3, 100000));
  EXPECT_FALSE(plan.crashed_at(2, 50));  // other peers unaffected
}

TEST(FaultPlan, StallAndBlackoutWindowsAreHalfOpen) {
  core::FaultPlan plan;
  plan.stalls.push_back({20, 60, 1});
  plan.blackouts.push_back({80, 160, 0, 2});

  EXPECT_FALSE(plan.stalled_at(1, 19));
  EXPECT_TRUE(plan.stalled_at(1, 20));
  EXPECT_TRUE(plan.stalled_at(1, 59));
  EXPECT_FALSE(plan.stalled_at(1, 60));
  EXPECT_TRUE(plan.down_at(1, 30));
  EXPECT_FALSE(plan.down_at(0, 30));

  EXPECT_FALSE(plan.blackout_at(0, 2, 79));
  EXPECT_TRUE(plan.blackout_at(0, 2, 80));
  EXPECT_TRUE(plan.blackout_at(0, 2, 159));
  EXPECT_FALSE(plan.blackout_at(0, 2, 160));
  EXPECT_FALSE(plan.blackout_at(2, 0, 100));  // directed edge
}

TEST(FaultPlan, NextBoundaryEnumeratesEveryEdge) {
  core::FaultPlan plan;
  plan.crashes.push_back({10, 0});
  plan.restarts.push_back({40, 0});
  plan.stalls.push_back({20, 60, 1});
  plan.joins.push_back({35, 2, false});
  plan.blackouts.push_back({80, 160, 0, 2});

  // Boundaries: 10, 20, 35, 40, 60, 80, 160.
  const std::vector<std::uint64_t> expected{10, 20, 35, 40, 60, 80, 160};
  std::uint64_t tick = 0;
  std::vector<std::uint64_t> seen;
  while (const auto next = plan.next_boundary_from(tick)) {
    seen.push_back(*next);
    tick = *next + 1;
  }
  EXPECT_EQ(seen, expected);
  // A boundary at the queried tick is itself the next boundary.
  EXPECT_EQ(plan.next_boundary_from(35), 35u);
  EXPECT_EQ(plan.next_boundary_from(161), std::nullopt);
}

// --- FaultTracker -----------------------------------------------------------

TEST(FaultTracker, AppliesEachMembershipEventOnceInOrder) {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({10, 0});
  plan->crashes.push_back({30, 1});
  plan->joins.push_back({10, 2, true});
  core::FaultTracker tracker(plan);
  ASSERT_TRUE(tracker.active());
  EXPECT_TRUE(tracker.pending_joins());

  std::vector<std::string> fired;
  const auto on_crash = [&](std::size_t peer) {
    fired.push_back("crash" + std::to_string(peer));
  };
  const auto on_join = [&](std::size_t count, bool origin_fed) {
    fired.push_back("join" + std::to_string(count) +
                    (origin_fed ? "f" : "u"));
  };

  tracker.apply_until(9, on_crash, on_join);
  EXPECT_TRUE(fired.empty());
  tracker.apply_until(10, on_crash, on_join);
  // Crashes before joins within one application tick.
  EXPECT_EQ(fired, (std::vector<std::string>{"crash0", "join2f"}));
  EXPECT_FALSE(tracker.pending_joins());
  tracker.apply_until(10, on_crash, on_join);  // idempotent
  EXPECT_EQ(fired.size(), 2u);
  tracker.apply_until(1000, on_crash, on_join);
  EXPECT_EQ(fired, (std::vector<std::string>{"crash0", "join2f", "crash1"}));
}

TEST(FaultTracker, SuspectsExpireAndMergeToLatest) {
  core::FaultTracker tracker(std::make_shared<core::FaultPlan>());
  tracker.mark_suspect(4, 100);
  tracker.mark_suspect(4, 80);  // shorter mark must not shrink the window
  EXPECT_TRUE(tracker.suspect(4, 99));
  EXPECT_FALSE(tracker.suspect(4, 100));  // expiry is exclusive
  EXPECT_FALSE(tracker.suspect(5, 50));
}

TEST(FaultTracker, InertWithoutPlan) {
  core::FaultTracker tracker;
  EXPECT_FALSE(tracker.active());
  EXPECT_FALSE(tracker.down(0, 100));
  EXPECT_FALSE(tracker.pending_joins());
  EXPECT_EQ(tracker.next_boundary_from(0), std::nullopt);
}

// --- Gilbert-Elliott burst loss ---------------------------------------------

/// Sends `frames` one at a time over an untimed channel and returns the
/// per-frame delivered/lost sequence, read off the channel's drop counter
/// (the untimed receive path batches deliveries a hop behind, so observing
/// arrivals would split loss runs artificially).
std::vector<bool> loss_sequence(const wire::ChannelConfig& config,
                                std::size_t frames) {
  wire::LossyChannel channel(config);
  std::vector<bool> delivered;
  delivered.reserve(frames);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    EXPECT_TRUE(channel.send(std::vector<std::uint8_t>(16, 1)));
    delivered.push_back(channel.dropped() == dropped);
    dropped = channel.dropped();
  }
  return delivered;
}

double mean_loss_run_length(const std::vector<bool>& delivered) {
  std::size_t runs = 0;
  std::size_t lost = 0;
  bool in_run = false;
  for (const bool ok : delivered) {
    if (!ok) {
      ++lost;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  return runs == 0 ? 0.0
                   : static_cast<double>(lost) / static_cast<double>(runs);
}

TEST(GilbertElliott, BurstLossIsCorrelatedAtMatchedAverageRate) {
  constexpr std::size_t kFrames = 20000;
  // Bad state loses everything; stationary bad share 0.05/(0.05+0.2) = 0.2,
  // so the long-run loss rate matches a Bernoulli 0.2 channel — but losses
  // arrive in bursts of mean length 1/p_bad_good = 5.
  wire::ChannelConfig ge;
  ge.ge_loss_good = 0.0;
  ge.ge_loss_bad = 1.0;
  ge.ge_p_good_bad = 0.05;
  ge.ge_p_bad_good = 0.2;
  ge.seed = 11;
  ASSERT_TRUE(ge.gilbert_elliott());

  wire::ChannelConfig bernoulli;
  bernoulli.loss_rate = 0.2;
  bernoulli.seed = 12;
  ASSERT_FALSE(bernoulli.gilbert_elliott());

  const auto ge_seq = loss_sequence(ge, kFrames);
  const auto iid_seq = loss_sequence(bernoulli, kFrames);

  const auto loss_rate = [](const std::vector<bool>& seq) {
    std::size_t lost = 0;
    for (const bool ok : seq) lost += ok ? 0 : 1;
    return static_cast<double>(lost) / static_cast<double>(seq.size());
  };
  EXPECT_NEAR(loss_rate(ge_seq), 0.2, 0.05);
  EXPECT_NEAR(loss_rate(iid_seq), 0.2, 0.05);

  // Mean loss-burst length: ~5 for the chain, ~1.25 for i.i.d. loss. The
  // gap is what "burst loss" means; loose bounds so this never flakes.
  EXPECT_GT(mean_loss_run_length(ge_seq), 3.0);
  EXPECT_LT(mean_loss_run_length(iid_seq), 2.0);
}

// --- Engine-level fault recovery (untimed links for speed) ------------------

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

void add_peers(core::ShardedDelivery& service, std::size_t peers,
               std::size_t fed) {
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < fed);
  }
}

TEST(FaultDelivery, CrashedPeerIsDownThenRestartsAndCompletes) {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 3});
  plan->restarts.push_back({90, 3});
  const auto content = random_content(64 * 40, 61);
  core::ShardedDelivery service(content, fault_options(plan));
  add_peers(service, 5, 2);

  for (std::size_t t = 0; t < 31; ++t) service.tick();
  EXPECT_TRUE(service.peer_down(3));
  EXPECT_FALSE(service.peer_down(2));
  for (std::size_t t = 31; t < 91; ++t) service.tick();
  EXPECT_FALSE(service.peer_down(3));

  ASSERT_TRUE(service.run(8000));
  for (std::size_t p = 0; p < 5; ++p) {
    EXPECT_EQ(service.peer_content(p), content) << "peer " << p;
  }
  // The restarted peer rejoined and finished after its restart tick.
  EXPECT_GE(service.peer_completion_tick(3), 90u);
}

TEST(FaultDelivery, LivenessTimeoutRecordsFailedSenderDiagnostic) {
  // Two peers, one source: peer 1 downloads only from peer 0. Peer 0
  // crashes mid-transfer and never restarts — peer 1's receiver must
  // detect the silence via its liveness timeout, and the engine must
  // record the abandoned session instead of hanging.
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 0});
  const auto content = random_content(64 * 60, 62);
  core::ShardedDelivery service(content, fault_options(plan));
  add_peers(service, 2, 1);

  for (std::size_t t = 0; t < 400; ++t) service.tick();

  const auto result = service.session_result(1);
  EXPECT_FALSE(result.completed);
  ASSERT_FALSE(result.failed_peers.empty());
  EXPECT_EQ(result.failed_peers.front().peer, 0u);
  EXPECT_EQ(result.failed_peers.front().reason,
            core::FailedPeer::Reason::kLivenessTimeout);
  // Detection is prompt: liveness timeout (12) plus scheduling slack, not
  // an entire refresh epoch of silence.
  EXPECT_LE(result.failed_peers.front().tick, 30u + 12u + 5u);
}

TEST(FaultDelivery, BlackedOutHandshakeExhaustsRetryBudgetWithDiagnostic) {
  // The only edge into peer 1 is dark from the start: every handshake
  // frame is eaten, so the receiver must burn its capped-backoff retry
  // budget and fail the session with kHandshakeExhausted — the bounded
  // alternative to retrying forever.
  auto plan = std::make_shared<core::FaultPlan>();
  plan->blackouts.push_back({0, 100000, 0, 1});
  auto options = fault_options(plan);
  options.handshake_retry_ticks = 4;
  options.handshake_backoff_cap_ticks = 16;
  // The retry budget (4 retries at 4/8/16/16-tick spacing) must exhaust
  // within one refresh epoch, or every epoch resets the count before the
  // bounded-failure path can fire.
  options.refresh_interval = 100;
  const auto content = random_content(64 * 40, 63);
  core::ShardedDelivery service(content, options);
  add_peers(service, 2, 1);

  for (std::size_t t = 0; t < 400; ++t) service.tick();

  const auto result = service.session_result(1);
  EXPECT_FALSE(result.completed);
  ASSERT_FALSE(result.failed_peers.empty());
  for (const auto& failed : result.failed_peers) {
    EXPECT_EQ(failed.peer, 0u);
    EXPECT_EQ(failed.reason, core::FailedPeer::Reason::kHandshakeExhausted);
  }
}

TEST(FaultDelivery, StalledPeerThawsAndCompletes) {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->stalls.push_back({10, 80, 2});
  const auto content = random_content(64 * 60, 64);
  core::ShardedDelivery service(content, fault_options(plan));
  add_peers(service, 4, 2);

  ASSERT_TRUE(service.run(8000));
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(service.peer_content(p), content) << "peer " << p;
  }
  // Frozen through [10, 80): the stalled peer cannot have finished its
  // download before thawing.
  EXPECT_GE(service.peer_completion_tick(2), 80u);
}

TEST(FaultDelivery, FlashCrowdJoinersAreServedAndRunWaitsForThem) {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->joins.push_back({40, 3, false});
  const auto content = random_content(64 * 40, 65);
  core::ShardedDelivery service(content, fault_options(plan));
  add_peers(service, 3, 1);
  EXPECT_EQ(service.peer_count(), 3u);

  // run() must not declare the swarm complete before the scheduled join
  // fires, even if every current peer finishes first.
  ASSERT_TRUE(service.run(10000));
  ASSERT_EQ(service.peer_count(), 6u);
  for (std::size_t p = 0; p < 6; ++p) {
    EXPECT_EQ(service.peer_content(p), content) << "peer " << p;
  }
  for (std::size_t p = 3; p < 6; ++p) {
    EXPECT_GT(service.peer_completion_tick(p), 40u) << "joiner " << p;
  }
}

TEST(FaultDelivery, RunUntilIsNotDoneWhileAJoinIsStillScheduled) {
  // Every present peer finishes long before the deadline, but a flash
  // crowd is due after it: the swarm has not finished, at any shard count.
  auto plan = std::make_shared<core::FaultPlan>();
  plan->joins.push_back({5000, 2, false});
  const auto content = random_content(64 * 20, 68);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    core::ShardedDelivery service(content, fault_options(plan),
                                  core::ShardOptions{shards});
    add_peers(service, 3, 1);
    EXPECT_FALSE(service.run_until(2000)) << shards << " shards";
    ASSERT_EQ(service.peer_count(), 3u);
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_TRUE(service.peer_complete(p))
          << "peer " << p << ", " << shards << " shards";
    }
  }
}

// --- Multi-shard churn ------------------------------------------------------

std::shared_ptr<core::FaultPlan> churn_plan() {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 3});
  plan->restarts.push_back({75, 3});
  plan->stalls.push_back({40, 70, 4});
  plan->joins.push_back({50, 2, false});
  plan->blackouts.push_back({20, 60, 0, 2});
  return plan;
}

TEST(FaultDelivery, MultiShardSwarmSurvivesChurn) {
  const auto content = random_content(64 * 40, 67);
  core::ShardedDelivery service(content, fault_options(churn_plan()),
                                core::ShardOptions{/*shards=*/2});
  add_peers(service, 6, 2);
  ASSERT_TRUE(service.run(10000));
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    EXPECT_EQ(service.peer_content(p), content) << "peer " << p;
  }
}

// --- Jumped runs stop on every fault boundary --------------------------------

/// One probe run's outcome: what a jump that crosses a fault boundary
/// would change.
struct ProbeRun {
  std::vector<std::size_t> completion;
  core::LinkTotals totals;
  std::size_t ticks = 0;
  std::uint64_t ticks_skipped = 0;
};

/// 4 peers (peer 0 origin-fed) on links that take 6 ticks and carry 18
/// bytes per tick at block_size 64, so the jump opens multi-tick spans and
/// a fault boundary can land on the tick right after an executed one.
ProbeRun run_probe(std::shared_ptr<core::FaultPlan> plan, bool jump) {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.refresh_interval = 97;
  options.handshake_retry_ticks = 40;
  options.link.delay_ticks = 6;
  options.link.rate_bytes_per_tick = 18;
  options.faults = std::move(plan);
  options.jump_empty_ticks = jump;
  core::ShardedDelivery service(random_content(2560, 7), options);
  add_peers(service, 4, 1);
  service.run(20000);
  ProbeRun run;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    run.completion.push_back(service.peer_completion_tick(p));
  }
  run.totals = service.link_totals();
  run.ticks = service.ticks();
  run.ticks_skipped = service.ticks_skipped();
  return run;
}

/// Runs the probe jumped and lockstep under plan_at(t) for t = 1, 1 +
/// stride, ... below 400, and returns every t at which the two differ in
/// any peer's completion tick, the link totals or the end tick.
template <typename PlanAt>
std::vector<std::uint64_t> diverging_fault_ticks(PlanAt plan_at,
                                                 std::uint64_t stride) {
  std::vector<std::uint64_t> diverged;
  std::uint64_t skipped = 0;
  for (std::uint64_t t = 1; t < 400; t += stride) {
    const ProbeRun lockstep = run_probe(plan_at(t), /*jump=*/false);
    const ProbeRun jumped = run_probe(plan_at(t), /*jump=*/true);
    EXPECT_EQ(std::count(lockstep.completion.begin(),
                         lockstep.completion.end(), 0u),
              0)
        << "the probe must complete (fault at " << t << ")";
    if (jumped.completion != lockstep.completion ||
        jumped.totals != lockstep.totals || jumped.ticks != lockstep.ticks) {
      diverged.push_back(t);
    }
    skipped += jumped.ticks_skipped;
  }
  EXPECT_GT(skipped, 0u) << "the probe must actually jump";
  return diverged;
}

TEST(FaultJumpProbe, JoinOnAnyTickMatchesLockstep) {
  const auto diverged = diverging_fault_ticks(
      [](std::uint64_t t) {
        auto plan = std::make_shared<core::FaultPlan>();
        plan->joins.push_back({t, 1, true});
        return plan;
      },
      /*stride=*/1);
  EXPECT_TRUE(diverged.empty())
      << diverged.size() << " of 399 join ticks diverge: "
      << ::testing::PrintToString(diverged);
}

TEST(FaultJumpProbe, BlackoutFromAnyTickMatchesLockstep) {
  const auto diverged = diverging_fault_ticks(
      [](std::uint64_t t) {
        auto plan = std::make_shared<core::FaultPlan>();
        plan->blackouts.push_back({t, t + 30, 0, 1});
        return plan;
      },
      /*stride=*/3);
  EXPECT_TRUE(diverged.empty())
      << diverged.size() << " blackout start ticks diverge: "
      << ::testing::PrintToString(diverged);
}

}  // namespace
}  // namespace icd
