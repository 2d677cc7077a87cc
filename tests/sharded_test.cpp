// Sharded delivery engine: determinism contract (every shard count, 1
// included, gives one identical trajectory), multi-shard swarm correctness
// (run under TSAN in CI), the per-peer link memory of multi-shard swarms,
// and the transport's per-tick control-frame batching layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/fault_plan.hpp"
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
    service.add_peer("p" + std::to_string(p), p < 3);
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
      service.add_peer("p" + std::to_string(p), p < 3);
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
    service.add_peer("p" + std::to_string(p), p < 2);
  }
  ASSERT_TRUE(service.run(10000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(service.peer_content(p), content);
  }
}

// --- Shard-count invariance -------------------------------------------------

/// Everything a run exposes that could depend on the schedule: per-peer
/// completion ticks and content, and the cumulative wire totals.
struct Trajectory {
  std::vector<std::size_t> completion;
  std::vector<std::vector<std::uint8_t>> content;
  core::ShardedDelivery::LinkTotals totals;
};

Trajectory run_with_shards(const std::vector<std::uint8_t>& content,
                           const core::DeliveryOptions& options,
                           std::size_t shards, std::size_t peers,
                           std::size_t fed, std::size_t max_ticks) {
  core::ShardedDelivery service(content, options,
                                core::ShardOptions{shards});
  for (std::size_t p = 0; p < peers; ++p) {
    service.add_peer("p" + std::to_string(p), p < fed);
  }
  service.run(max_ticks);
  Trajectory trajectory;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    trajectory.completion.push_back(service.peer_completion_tick(p));
    trajectory.content.push_back(service.peer_complete(p)
                                     ? service.peer_content(p)
                                     : std::vector<std::uint8_t>{});
  }
  trajectory.totals = service.link_totals();
  return trajectory;
}

/// Every download runs wholly on its receiver's shard in the same two
/// phases — on the caller's thread at shards = 1 — so the run is a
/// function of the plan alone: 1, 2, 3 and 4 shards must agree bit for
/// bit.
void expect_shard_count_invariant(const std::vector<std::uint8_t>& content,
                                  const core::DeliveryOptions& options,
                                  std::size_t peers, std::size_t fed,
                                  std::size_t max_ticks) {
  const Trajectory two =
      run_with_shards(content, options, 2, peers, fed, max_ticks);
  for (std::size_t p = 0; p < two.completion.size(); ++p) {
    ASSERT_NE(two.completion[p], 0u) << "peer " << p << " stuck";
    EXPECT_EQ(two.content[p], content) << "peer " << p;
  }
  for (const std::size_t shards : {1u, 3u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const Trajectory other =
        run_with_shards(content, options, shards, peers, fed, max_ticks);
    EXPECT_EQ(other.completion, two.completion);
    EXPECT_EQ(other.content, two.content);
    EXPECT_EQ(other.totals, two.totals);
  }
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

// --- Link memory ------------------------------------------------------------

TEST(ShardedDelivery, MultiShardLinkBytesPerPeerStayBounded) {
  // A mid-download audit of a 2-shard swarm: every live link is a plain
  // ChannelLink (queued frames, transport scratch, one shared pool), so
  // the per-peer link share stays a few KiB wherever the two ends live.
  const auto content = random_content(64 * 60, 30);
  constexpr std::size_t kPeers = 16;
  core::ShardedDelivery service(content, small_options(),
                                core::ShardOptions{/*shards=*/2});
  for (std::size_t p = 0; p < kPeers; ++p) {
    service.add_peer("p" + std::to_string(p), p < 2);
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

// --- Per-tick control-frame batching ----------------------------------------

TEST(Batching, TrainPreservesMessagesOrderAndBytes) {
  wire::Pipe plain(1500);
  wire::Pipe batched(1500);
  batched.a().set_batch_budget(1400);

  const std::vector<wire::Message> bundle = {
      wire::Hello{100, 7, 42}, wire::Request{64}, wire::Request{65}};
  for (const auto& m : bundle) {
    ASSERT_TRUE(plain.a().send(m));
    ASSERT_TRUE(batched.a().send(m));
  }
  ASSERT_TRUE(batched.a().flush_batch());

  // Same wire bytes, fewer datagrams.
  EXPECT_EQ(batched.a().stats().control_bytes_sent,
            plain.a().stats().control_bytes_sent);
  EXPECT_EQ(plain.a().stats().control_frames_sent, 3u);
  EXPECT_EQ(batched.a().stats().control_frames_sent, 1u);

  // The receiver slices the train back into the same messages, in order.
  for (const auto& m : bundle) {
    auto received = batched.b().receive();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(wire::message_type(*received), wire::message_type(m));
  }
  EXPECT_FALSE(batched.b().receive().has_value());
}

TEST(Batching, SplitsTrainsAtBudget) {
  wire::Pipe pipe(1500);
  pipe.a().set_batch_budget(40);  // Request frames are ~9 bytes
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipe.a().send(wire::Request{static_cast<std::uint64_t>(i)}));
  }
  ASSERT_TRUE(pipe.a().flush_batch());
  // Request frames are 6 bytes, so a 40-byte budget holds 6 per train:
  // 10 frames split into exactly 2 datagrams.
  EXPECT_EQ(pipe.a().stats().control_frames_sent, 2u);
  for (int i = 0; i < 10; ++i) {
    auto received = pipe.b().receive();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(std::get<wire::Request>(*received).symbols_desired,
              static_cast<std::uint64_t>(i));
  }
}

TEST(Batching, DataSendFlushesPendingControlFirst) {
  wire::Pipe pipe(1500);
  pipe.a().set_batch_budget(1400);
  ASSERT_TRUE(pipe.a().send(wire::Request{5}));
  const std::vector<std::uint8_t> payload(64, 0xab);
  ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{11, payload}));

  // Control departs before the symbol that followed it.
  auto first = pipe.b().receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(std::holds_alternative<wire::Request>(*first));
  auto second = pipe.b().receive();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(std::holds_alternative<wire::EncodedSymbolMessage>(*second));
}

// --- BufferPool shard-local ownership ---------------------------------------

#if defined(__SANITIZE_THREAD__)
#define ICD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICD_TSAN 1
#endif
#endif

// Death tests fork, which TSAN dislikes; the abort path is still exercised
// by the non-death handoff test below.
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

#if defined(ICD_POOL_OWNER_CHECKS)
TEST(BufferPoolOwner, ReleaseOwnerAllowsHandoff) {
  wire::BufferPool pool;
  pool.release(pool.acquire());  // bind here
  pool.debug_release_owner();
  std::thread other([&pool] {
    pool.release(pool.acquire());  // rebinds to the worker: must not die
  });
  other.join();
  pool.debug_release_owner();
  pool.release(pool.acquire());  // and back
  SUCCEED();
}
#endif

}  // namespace
}  // namespace icd
