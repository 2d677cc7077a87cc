// Sharded delivery engine: determinism contract (every shard count, 1
// included, gives one identical trajectory, also across refreshes that
// retire, plan and build on the shards, and with a per-edge link_config
// those shards call at once), per-receiver refresh plans (no receiver's
// plan depends on another's), multi-shard swarm correctness
// (run under TSAN in CI), the per-peer link memory of multi-shard swarms,
// the reuse of each shard's frame pool, read-only id lookups on a Peer
// shared across threads, and the shard-local ownership of buffer pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/degree.hpp"
#include "core/fault_plan.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"
#include "wire/transport.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

core::DeliveryOptions small_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 13;
  options.refresh_interval = 25;
  return options;
}

/// Drives a service tick by tick, recording the tick at which each peer
/// completed, until all complete or max_ticks pass.
std::vector<std::size_t> drive(core::ShardedDelivery& service,
                               std::size_t peers, std::size_t max_ticks) {
  std::vector<std::size_t> completion(peers, 0);
  for (std::size_t t = 0; t < max_ticks; ++t) {
    service.tick();
    bool all = true;
    for (std::size_t p = 0; p < peers; ++p) {
      if (completion[p] == 0 && service.peer_complete(p)) {
        completion[p] = service.ticks();
      }
      all = all && completion[p] != 0;
    }
    if (all) break;
  }
  return completion;
}

// --- Multi-shard swarms (TSAN target) ---------------------------------------

TEST(ShardedDelivery, FourShardSwarmDeliversEverywhere) {
  const auto content = random_content(64 * 80, 23);
  const std::size_t peers = 12;
  core::ShardedDelivery service(content, small_options(),
                                core::ShardOptions{/*shards=*/4});
  service.add_mirror();
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 3);
  }
  ASSERT_TRUE(service.run(8000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_TRUE(service.peer_complete(p));
    EXPECT_EQ(service.peer_content(p), content);
  }
}

TEST(ShardedDelivery, FourShardRunsAreDeterministic) {
  const auto content = random_content(64 * 60, 24);
  const std::size_t peers = 9;
  auto run_once = [&](std::vector<std::size_t>& completion,
                      core::ShardedDelivery::LinkTotals& totals) {
    core::ShardedDelivery service(content, small_options(),
                                  core::ShardOptions{/*shards=*/4});
    for (std::size_t p = 0; p < peers; ++p) {
      std::string name = "p";
      name += std::to_string(p);
      service.add_peer(name, p < 3);
    }
    completion = drive(service, peers, 8000);
    totals = service.link_totals();
  };
  std::vector<std::size_t> first_completion, second_completion;
  core::ShardedDelivery::LinkTotals first_totals, second_totals;
  run_once(first_completion, first_totals);
  run_once(second_completion, second_totals);
  EXPECT_EQ(first_completion, second_completion);
  EXPECT_EQ(first_totals.control_bytes, second_totals.control_bytes);
  EXPECT_EQ(first_totals.data_bytes, second_totals.data_bytes);
  EXPECT_EQ(first_totals.data_frames, second_totals.data_frames);
}

TEST(ShardedDelivery, FourShardSwarmSurvivesLossyCrossLinks) {
  auto options = small_options();
  options.link.loss_rate = 0.1;
  const auto content = random_content(64 * 50, 25);
  const std::size_t peers = 8;
  core::ShardedDelivery service(content, options,
                                core::ShardOptions{/*shards=*/4});
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 2);
  }
  ASSERT_TRUE(service.run(10000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(service.peer_content(p), content);
  }
}

// --- Shard-count invariance -------------------------------------------------

/// One abandoned download session: (sender, tick, reason).
using Failure =
    std::tuple<std::size_t, std::uint64_t, core::FailedPeer::Reason>;

/// Everything a run exposes that could depend on the schedule: per-peer
/// completion ticks, content and failed sessions, the cumulative wire
/// totals, and the jump counters. `pushes` counts planned peers per
/// executed tick, so compare two trajectories only within one jump mode.
struct Trajectory {
  std::vector<std::size_t> completion;
  std::vector<std::vector<std::uint8_t>> content;
  std::vector<std::vector<Failure>> failures;
  core::ShardedDelivery::LinkTotals totals;
  std::size_t ticks = 0;
  std::uint64_t ticks_skipped = 0;
  std::uint64_t pushes = 0;
};

Trajectory run_with_shards(const std::vector<std::uint8_t>& content,
                           const core::DeliveryOptions& options,
                           std::size_t shards, std::size_t peers,
                           std::size_t fed, std::size_t max_ticks) {
  core::ShardedDelivery service(content, options,
                                core::ShardOptions{shards});
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < fed);
  }
  service.run(max_ticks);
  Trajectory trajectory;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    trajectory.completion.push_back(service.peer_completion_tick(p));
    trajectory.content.push_back(service.peer_complete(p)
                                     ? service.peer_content(p)
                                     : std::vector<std::uint8_t>{});
    std::vector<Failure>& failures = trajectory.failures.emplace_back();
    for (const core::FailedPeer& failed :
         service.session_result(p).failed_peers) {
      failures.emplace_back(failed.peer, failed.tick, failed.reason);
    }
  }
  trajectory.totals = service.link_totals();
  trajectory.ticks = service.ticks();
  trajectory.ticks_skipped = service.ticks_skipped();
  trajectory.pushes = service.planner_stats().pushes;
  return trajectory;
}

/// Every download runs wholly on its receiver's shard in the same two
/// phases — on the caller's thread at shards = 1 — so the run is a
/// function of the plan alone: 1, 2, 3 and 4 shards must agree bit for
/// bit. Returns the 2-shard trajectory.
Trajectory expect_shard_count_invariant(
    const std::vector<std::uint8_t>& content,
    const core::DeliveryOptions& options, std::size_t peers, std::size_t fed,
    std::size_t max_ticks) {
  Trajectory two =
      run_with_shards(content, options, 2, peers, fed, max_ticks);
  for (std::size_t p = 0; p < two.completion.size(); ++p) {
    EXPECT_NE(two.completion[p], 0u) << "peer " << p << " stuck";
    EXPECT_EQ(two.content[p], content) << "peer " << p;
  }
  for (const std::size_t shards : {1u, 3u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const Trajectory other =
        run_with_shards(content, options, shards, peers, fed, max_ticks);
    EXPECT_EQ(other.completion, two.completion);
    EXPECT_EQ(other.content, two.content);
    EXPECT_EQ(other.failures, two.failures);
    EXPECT_EQ(other.totals, two.totals);
    EXPECT_EQ(other.ticks, two.ticks);
    EXPECT_EQ(other.ticks_skipped, two.ticks_skipped);
    EXPECT_EQ(other.pushes, two.pushes);
  }
  return two;
}

TEST(ShardCountInvariance, UntimedLossAndReorderSwarm) {
  auto options = small_options();
  options.link.loss_rate = 0.08;
  options.link.reorder_rate = 0.1;
  options.link.mtu = 600;
  expect_shard_count_invariant(random_content(64 * 60, 28), options,
                               /*peers=*/10, /*fed=*/2, 10000);
}

TEST(ShardCountInvariance, TimedSwarmUnderCrashRestartJoinAndBlackout) {
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 3});
  plan->restarts.push_back({75, 3});
  plan->joins.push_back({50, 2, false});
  plan->blackouts.push_back({20, 60, 0, 2});
  auto options = small_options();
  options.faults = plan;
  options.link.delay_ticks = 2;
  options.link.jitter_ticks = 1;
  options.link.loss_rate = 0.05;
  options.handshake_retry_ticks = 12;
  options.liveness_timeout_ticks = 16;
  options.max_handshake_retries = 6;
  expect_shard_count_invariant(random_content(64 * 40, 29), options,
                               /*peers=*/8, /*fed=*/2, 10000);
}

TEST(ShardCountInvariance, FailedSessionsAcrossCrashesStallAndBlackout) {
  // Every teardown runs on its receiver's shard: the crash phase's (peer 3
  // crashes on a refresh tick, peer 5 crashes and restarts on one tick),
  // and the receive phase's teardowns of failed sessions, whose senders'
  // suspicions the coordinator applies after the phase. Liveness expiries
  // (receivers of peer 2, which crashes mid-transfer) and exhausted
  // handshake retries (peer 4's downloads over the blacked-out edge
  // 0 -> 4, among others) must both occur, and no shard count, in either
  // jump mode, may move a stamp, a failure record or a plan.
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({20, 3});
  plan->restarts.push_back({70, 3});
  plan->crashes.push_back({33, 5});
  plan->restarts.push_back({33, 5});
  plan->crashes.push_back({45, 2});
  plan->restarts.push_back({90, 2});
  plan->stalls.push_back({50, 95, 6});
  plan->blackouts.push_back({0, 100000, 0, 4});
  auto options = small_options();
  options.faults = plan;
  options.session_seed = 77;
  options.refresh_interval = 20;
  options.link.delay_ticks = 2;
  options.link.jitter_ticks = 1;
  options.link.loss_rate = 0.05;
  options.handshake_retry_ticks = 4;
  options.max_handshake_retries = 2;
  options.liveness_timeout_ticks = 12;
  const auto content = random_content(64 * 40, 5);
  std::vector<Trajectory> modes;
  for (const bool jump : {false, true}) {
    SCOPED_TRACE(jump ? "jumped" : "lockstep");
    options.jump_empty_ticks = jump;
    modes.push_back(expect_shard_count_invariant(content, options,
                                                 /*peers=*/10, /*fed=*/2,
                                                 10000));
  }
  const Trajectory& lockstep = modes[0];
  const Trajectory& jumped = modes[1];
  EXPECT_EQ(jumped.completion, lockstep.completion);
  EXPECT_EQ(jumped.failures, lockstep.failures);
  EXPECT_EQ(jumped.totals, lockstep.totals);
  EXPECT_EQ(jumped.ticks, lockstep.ticks);
  EXPECT_GT(jumped.ticks_skipped, 0u);
  std::size_t liveness = 0;
  std::size_t exhausted = 0;
  for (const std::vector<Failure>& failures : lockstep.failures) {
    for (const Failure& failure : failures) {
      if (std::get<2>(failure) == core::FailedPeer::Reason::kLivenessTimeout) {
        ++liveness;
      } else {
        ++exhausted;
      }
    }
  }
  EXPECT_GT(liveness, 0u);
  EXPECT_GT(exhausted, 0u);
}

TEST(ShardCountInvariance, SampledAdmissionRefreshesAcrossCrashAndRestart) {
  // Sampled admission retires every download on its receiver's shard and
  // builds the planned ones there too; a crash between refreshes retires
  // the crashed peer's downloads on its shard as well, in a crash phase of
  // its own. Neither may leak the shard count into the run.
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({30, 4});
  plan->restarts.push_back({60, 4});
  auto options = small_options();
  options.faults = plan;
  options.admission_sample = 3;
  options.refresh_interval = 20;
  options.link.loss_rate = 0.05;
  options.link.delay_ticks = 1;
  const Trajectory two = expect_shard_count_invariant(
      random_content(64 * 50, 32), options, /*peers=*/14, /*fed=*/2, 10000);
  // Refreshes at 0, 20, 40 and 60 at least: the crash and the restart
  // both fall between refreshes of the run.
  EXPECT_GT(two.ticks, 3 * options.refresh_interval);
  EXPECT_GT(*std::max_element(two.completion.begin(), two.completion.end()),
            3 * options.refresh_interval);
}

TEST(ShardCountInvariance, PerEdgeLinkConfigAcrossCrashAndRestart) {
  // Every shard's build phase calls link_config for its own receivers'
  // downloads, all shards at once; a closure that is a pure function of
  // the edge, as the option asks, cannot leak the shard count into the run.
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({35, 4});
  plan->restarts.push_back({70, 4});
  auto options = small_options();
  options.faults = plan;
  options.link_config = [](std::size_t sender, std::size_t receiver) {
    wire::ChannelConfig config;
    config.loss_rate = 0.03 * static_cast<double>((sender + receiver) % 3);
    config.reorder_rate = receiver % 2 == 0 ? 0.1 : 0.0;
    config.mtu = sender % 2 == 0 ? 600 : 1500;
    return config;
  };
  expect_shard_count_invariant(random_content(64 * 50, 35), options,
                               /*peers=*/10, /*fed=*/2, 10000);
}

// --- Per-receiver refresh plans ---------------------------------------------

/// Every peer's working-set size just before the refresh of tick 60, in a
/// 16-peer swarm where peers 1-3 are origin-fed and peer 0 starts empty and
/// is never fed; `crash_peer_0` crashes it at tick 0.
std::vector<std::size_t> sizes_before_third_refresh(std::size_t sample,
                                                    std::size_t shards,
                                                    bool crash_peer_0) {
  auto options = small_options();
  options.refresh_interval = 30;
  options.admission_sample = sample;
  options.link.loss_rate = 0.1;
  if (crash_peer_0) {
    auto plan = std::make_shared<core::FaultPlan>();
    plan->crashes.push_back({0, 0});
    options.faults = plan;
  }
  core::ShardedDelivery service(random_content(64 * 60, 34), options,
                                core::ShardOptions{shards});
  for (std::size_t p = 0; p < 16; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p >= 1 && p <= 3);
  }
  while (service.ticks() < 2 * options.refresh_interval) service.tick();
  std::vector<std::size_t> sizes;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    sizes.push_back(service.peer(p).symbol_count());
  }
  return sizes;
}

TEST(RefreshPlan, ReceiverPlansIgnoreOtherReceivers) {
  // Each receiver plans from its own seed, a function of the session seed,
  // the refresh tick and its id. Peer 0 holds nothing and so never serves:
  // whether it plans downloads at the refresh of tick 30 (up) or not
  // (crashed) must not move any other peer's downloads, under either
  // admission mode and at any shard count.
  for (const std::size_t sample : {0u, 3u}) {
    for (const std::size_t shards : {1u, 2u}) {
      SCOPED_TRACE("admission_sample " + std::to_string(sample) +
                   ", shards " + std::to_string(shards));
      const auto up = sizes_before_third_refresh(sample, shards, false);
      const auto crashed = sizes_before_third_refresh(sample, shards, true);
      // Peer 0 did download while up, and the unfed peers 4-15 did
      // receive, so the comparison is not vacuous.
      EXPECT_GT(up[0], 0u);
      EXPECT_EQ(crashed[0], 0u);
      EXPECT_GT(*std::max_element(up.begin() + 4, up.end()), 0u);
      EXPECT_EQ(std::vector(up.begin() + 1, up.end()),
                std::vector(crashed.begin() + 1, crashed.end()));
    }
  }
}

// --- Link memory ------------------------------------------------------------

TEST(ShardedDelivery, MultiShardLinkBytesPerPeerStayBounded) {
  // A mid-download audit of a 2-shard swarm: every live link is a plain
  // ChannelLink (queued frames, transport scratch) drawing from its
  // shard's pool, which the audit counts once, so the per-peer link share
  // stays a few KiB wherever the two ends live.
  const auto content = random_content(64 * 60, 30);
  constexpr std::size_t kPeers = 16;
  core::ShardedDelivery service(content, small_options(),
                                core::ShardOptions{/*shards=*/2});
  for (std::size_t p = 0; p < kPeers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 2);
  }
  std::optional<core::MemoryAudit> mid;
  for (std::size_t t = 0; t < 8000 && !mid; ++t) {
    service.tick();
    std::size_t complete = 0;
    for (std::size_t p = 0; p < kPeers; ++p) {
      complete += service.peer_complete(p) ? 1 : 0;
    }
    if (complete >= kPeers / 4) mid = service.memory_audit();
  }
  ASSERT_TRUE(mid.has_value()) << "swarm never reached a quarter complete";
  ASSERT_GT(mid->link_bytes, 0u);
  EXPECT_LT(mid->link_bytes / mid->peers, 16 * 1024u);
}

// --- Shard frame pools -------------------------------------------------------

TEST(ShardedDelivery, ShardPoolsServeRefreshesFromRecycledFrames) {
  // Every link on a shard draws frames from the shard's one pool, so once
  // the first refresh has filled the pools, later refreshes' handshake
  // bursts reuse the buffers earlier frames returned instead of
  // allocating.
  auto options = small_options();
  options.admission_sample = 4;
  options.refresh_interval = 20;
  options.link.delay_ticks = 1;
  const auto content = random_content(64 * 60, 33);
  constexpr std::size_t kPeers = 40;
  constexpr std::size_t kShards = 2;
  core::ShardedDelivery service(content, options,
                                core::ShardOptions{kShards});
  for (std::size_t p = 0; p < kPeers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p % 8 == 0);
  }
  // No peer holds a symbol at the refresh of tick 0, so the one at tick
  // 20 is the first to build downloads, from cold pools.
  while (service.ticks() < 2 * options.refresh_interval) service.tick();
  std::vector<wire::BufferPool::Stats> first(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    first[s] = service.shard_pool(s).stats();
    ASSERT_GT(first[s].acquires, 0u) << "shard " << s;
  }
  ASSERT_TRUE(service.run(8000));
  ASSERT_GT(service.ticks(), 4 * options.refresh_interval);
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& stats = service.shard_pool(s).stats();
    const std::size_t acquires = stats.acquires - first[s].acquires;
    const std::size_t hits = stats.hits - first[s].hits;
    ASSERT_GT(acquires, 0u) << "shard " << s;
    EXPECT_GE(static_cast<double>(hits), 0.9 * static_cast<double>(acquires))
        << "shard " << s << ": " << hits << " of " << acquires;
  }
  for (std::size_t p = 0; p < kPeers; ++p) {
    EXPECT_EQ(service.peer_content(p), content) << p;
  }
}

// --- Concurrent reads of one const Peer (TSAN target) ------------------------

TEST(ConstPeerReads, ConcurrentIdLookupsMatchASingleThreadedPass) {
  // Sender halves on different shards read one const Peer at once
  // (peer.hpp). Two threads look up every held id, and some absent ones;
  // TSAN fails if a const lookup ever writes (a lazy rehash, a cached
  // probe position).
  const std::size_t blocks = 1000;
  core::OriginServer origin(random_content(blocks * 16, 41), 16,
                            codec::DegreeDistribution::robust_soliton(blocks),
                            /*session_seed=*/5);
  core::Peer peer("reader", origin.parameters(),
                  codec::DegreeDistribution::robust_soliton(blocks));
  for (std::size_t i = 0; i < 1200; ++i) peer.receive_encoded(origin.next());
  ASSERT_GE(peer.symbol_count(), 1000u);

  struct Reads {
    std::vector<std::uint32_t> slots;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::size_t held = 0;
    std::size_t absent_held = 0;
    bool operator==(const Reads&) const = default;
  };
  const core::Peer& shared = peer;
  const auto read_all = [&shared] {
    Reads reads;
    for (const std::uint64_t id : shared.symbol_ids()) {
      const std::uint32_t slot = shared.symbol_slot(id);
      reads.slots.push_back(slot);
      reads.payloads.push_back(shared.slot_payload(slot));
      reads.held += shared.has_symbol(id) ? 1 : 0;
      reads.absent_held += shared.has_symbol(~id) ? 1 : 0;
    }
    return reads;
  };

  const Reads single = read_all();
  ASSERT_EQ(single.held, peer.symbol_count());
  ASSERT_EQ(single.absent_held, 0u);
  Reads first, second;
  std::thread a([&] { first = read_all(); });
  std::thread b([&] { second = read_all(); });
  a.join();
  b.join();
  EXPECT_TRUE(first == single);
  EXPECT_TRUE(second == single);
}

// --- BufferPool shard-local ownership ---------------------------------------

#if defined(__SANITIZE_THREAD__)
#define ICD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICD_TSAN 1
#endif
#endif

// Death tests fork, which TSAN dislikes.
#if defined(ICD_POOL_OWNER_CHECKS) && !defined(ICD_TSAN)
TEST(BufferPoolOwnerDeathTest, CrossThreadUseAbortsLoudly) {
  EXPECT_DEATH(
      {
        wire::BufferPool pool;
        pool.release(pool.acquire());  // binds to this thread
        std::thread offender([&pool] { (void)pool.acquire(); });
        offender.join();
      },
      "non-owner thread");
}
#endif

}  // namespace
}  // namespace icd
