// Sharded delivery engine: determinism contract (every shard count, 1
// included, gives one identical trajectory), multi-shard swarm correctness
// (run under TSAN in CI), the per-peer link memory of multi-shard swarms,
// read-only id lookups on a Peer shared across threads, and the
// shard-local ownership of link buffer pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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
