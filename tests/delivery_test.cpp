// Tests for the delivery engine's contract: full-fidelity end-to-end
// delivery with origin mirrors, admission-controlled peer sessions, and
// verification of reconstructed content. Every DeliveryService test runs
// on the inline schedule (shards = 1) and on the two-phase multi-shard
// schedule (shards = 2). FlowControlDefault pins the engine's default of
// closed-loop flow control. The AdaptiveOverlay suite gates the Section
// 2.1 claims (admission, loss, adaptation, reordering) on the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "core/swarm.hpp"
#include "util/random.hpp"

namespace icd::core {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

DeliveryOptions small_options() {
  DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 13;
  options.refresh_interval = 25;
  return options;
}

// --- Admission starvation relaxation ----------------------------------------

/// Builds a sketch over `count` ids starting at `first` (512 permutations:
/// tight resemblance estimates so the cutoff comparisons are stable).
sketch::MinwiseSketch make_sketch(std::uint64_t first, std::uint64_t count) {
  sketch::MinwiseSketch sketch(1u << 20, 512);
  for (std::uint64_t id = first; id < first + count; ++id) sketch.update(id);
  return sketch;
}

TEST(AdmissionRelaxation, NearCompletePeerAdmitsNovelNotIdenticalSenders) {
  // End-of-download regime: every candidate resembles the receiver above
  // the strict cutoff. The relaxed policy (tiny remaining need -> cutoff
  // relaxes toward 1) must admit the sender that still holds novel
  // symbols while continuing to reject the genuinely identical one —
  // which the old largest-candidate fallback would happily have picked.
  const auto receiver = make_sketch(0, 950);
  const auto identical = make_sketch(0, 950);     // same 950 ids
  const auto near_identical = make_sketch(0, 960);  // 950 shared + 10 novel

  AdmissionPolicy policy;  // max_resemblance 0.95
  std::vector<CandidateSender> candidates{
      CandidateSender{7, &identical, 950},
      CandidateSender{9, &near_identical, 960}};

  // Strict admission rejects both (estimated resemblance 1.0 and ~0.98).
  EXPECT_TRUE(
      select_senders(receiver, 950, candidates, policy, 2).empty());

  // Near complete: needed 50 of a 1000-symbol target.
  const AdmissionPolicy relaxed = relax_policy_for_need(policy, 50, 1000);
  EXPECT_GT(relaxed.max_resemblance, 0.99);
  EXPECT_LT(relaxed.max_resemblance, 1.0);  // identical stays out
  const auto selected = select_senders(receiver, 950, candidates, relaxed, 2);
  EXPECT_EQ(selected, (std::vector<std::size_t>{9}));
}

TEST(AdmissionRelaxation, FarFromDonePeerKeepsTheStrictCutoff) {
  // Early-download regime: the same near-identical candidate offers
  // nothing a peer that needs most of the content could not get from a
  // genuinely novel sender, and the barely-relaxed cutoff still rejects
  // it — no useless sessions are admitted.
  const auto receiver = make_sketch(0, 950);
  const auto near_identical = make_sketch(0, 960);
  AdmissionPolicy policy;
  std::vector<CandidateSender> candidates{
      CandidateSender{9, &near_identical, 960}};

  const AdmissionPolicy relaxed = relax_policy_for_need(policy, 900, 1000);
  EXPECT_LT(relaxed.max_resemblance, 0.96);
  EXPECT_TRUE(
      select_senders(receiver, 950, candidates, relaxed, 2).empty());
  // And the relaxation is monotone in the remaining need.
  EXPECT_LT(relax_policy_for_need(policy, 900, 1000).max_resemblance,
            relax_policy_for_need(policy, 400, 1000).max_resemblance);
  EXPECT_LT(relax_policy_for_need(policy, 400, 1000).max_resemblance,
            relax_policy_for_need(policy, 50, 1000).max_resemblance);
}

// --- The engine contract, at every schedule ----------------------------------

/// Parameterized over the shard count.
class DeliveryService : public ::testing::TestWithParam<std::size_t> {
 protected:
  ShardedDelivery make(const std::vector<std::uint8_t>& content,
                       const DeliveryOptions& options) const {
    return ShardedDelivery(content, options, ShardOptions{GetParam()});
  }
};

INSTANTIATE_TEST_SUITE_P(Shards, DeliveryService,
                         ::testing::Values(std::size_t{1}, std::size_t{2}),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(DeliveryService, SingleSubscriberDecodesFromOrigin) {
  const auto content = random_content(64 * 200, 1);
  auto service = make(content, small_options());
  const auto id = service.add_peer("solo", /*subscribe_origin=*/true);
  ASSERT_TRUE(service.run(2000));
  EXPECT_TRUE(service.peer_complete(id));
  EXPECT_EQ(service.peer_content(id), content);
}

TEST_P(DeliveryService, NonSubscribersFedByPeers) {
  // Two origin-fed peers, three peers reachable only via the overlay: the
  // informed peer sessions must carry the content the rest of the way.
  const auto content = random_content(64 * 150, 2);
  auto service = make(content, small_options());
  std::vector<std::size_t> ids;
  ids.push_back(service.add_peer("seed-a", true));
  ids.push_back(service.add_peer("seed-b", true));
  ids.push_back(service.add_peer("leaf-1", false));
  ids.push_back(service.add_peer("leaf-2", false));
  ids.push_back(service.add_peer("leaf-3", false));
  ASSERT_TRUE(service.run(6000));
  for (const auto id : ids) {
    EXPECT_TRUE(service.peer_complete(id));
    EXPECT_EQ(service.peer_content(id), content);
  }
}

TEST_P(DeliveryService, MirrorsSpeedUpSubscribers) {
  const auto content = random_content(64 * 200, 3);

  auto one = make(content, small_options());
  one.add_peer("a", true);
  ASSERT_TRUE(one.run(4000));
  const auto single_ticks = one.ticks();

  auto two = make(content, small_options());
  two.add_mirror();
  // Peers round-robin across origins; a pair of subscribers shares the
  // load and both still finish.
  two.add_peer("a", true);
  two.add_peer("b", true);
  ASSERT_TRUE(two.run(4000));
  // The mirrored service serves double the peers in comparable time.
  EXPECT_LE(two.ticks(), single_ticks * 2);
}

TEST_P(DeliveryService, CompletedPeersServeLateJoiners) {
  const auto content = random_content(64 * 120, 4);
  auto options = small_options();
  auto service = make(content, options);
  const auto seeder = service.add_peer("seeder", true);
  ASSERT_TRUE(service.run(3000));
  ASSERT_TRUE(service.peer_complete(seeder));

  // Late joiner with no origin subscription: it can only get content from
  // the completed seeder, which serves re-encoded fresh symbols.
  const auto late = service.add_peer("late", false);
  ASSERT_TRUE(service.run(5000));
  EXPECT_TRUE(service.peer_complete(late));
  EXPECT_EQ(service.peer_content(late), content);
}

TEST_P(DeliveryService, ShortRefreshIntervalDoesNotStarveNearCompletePeers) {
  // Regression: with short sessions a nearly-complete peer's sketch
  // resembles every candidate above the admission cutoff, and without the
  // starvation fallback refresh_sessions stops creating downloads — the
  // peer stalls a few symbols short of decoding, forever.
  const auto content = random_content(64 * 150, 9);
  auto options = small_options();
  options.refresh_interval = 10;
  options.link.loss_rate = 0.1;  // over lossy edges, too
  auto service = make(content, options);
  service.add_peer("seed", true);
  const auto leaf = service.add_peer("leaf", false);
  ASSERT_TRUE(service.run(6000));
  EXPECT_EQ(service.peer_content(leaf), content);
}

TEST_P(DeliveryService, TinyLinkMtuIsDiagnosableNotSilent) {
  // An MTU below the fragment overhead means no frame can ever cross the
  // peer links; the service must stall visibly (frames_refused) instead
  // of reporting an idle wire.
  const auto content = random_content(64 * 50, 11);
  auto options = small_options();
  options.link.mtu = 16;
  auto service = make(content, options);
  service.add_peer("seed", true);
  const auto leaf = service.add_peer("leaf", false);
  EXPECT_FALSE(service.run(100));
  EXPECT_FALSE(service.peer_complete(leaf));
  const auto totals = service.link_totals();
  EXPECT_GT(totals.frames_refused, 0u);
  // Only the few-byte Request fits a 16-byte MTU; Hello, sketch, and
  // summary are all refused, so the handshake stalls and no data-plane
  // traffic ever flows.
  EXPECT_EQ(totals.data_bytes, 0u);
}

TEST_P(DeliveryService, LinkTotalsAreCumulativeAcrossRefreshes) {
  const auto content = random_content(64 * 150, 7);
  auto options = small_options();
  options.refresh_interval = 10;  // force several session teardowns
  auto service = make(content, options);
  service.add_peer("seed", true);
  const auto leaf = service.add_peer("leaf", false);

  LinkTotals previous;
  std::size_t refreshes_observed = 0;
  for (int t = 0; t < 600 && !service.peer_complete(leaf); ++t) {
    service.tick();
    const auto totals = service.link_totals();
    // Cumulative totals never decrease, even across a refresh teardown.
    EXPECT_GE(totals.control_bytes, previous.control_bytes);
    EXPECT_GE(totals.data_bytes, previous.data_bytes);
    EXPECT_GE(totals.control_frames, previous.control_frames);
    EXPECT_GE(totals.data_frames, previous.data_frames);
    if (service.active_link_totals().control_bytes < totals.control_bytes) {
      ++refreshes_observed;  // some cost now lives only in retired links
    }
    previous = totals;
  }
  EXPECT_GT(refreshes_observed, 0u);
  EXPECT_GT(previous.control_bytes, 0u);
  EXPECT_GT(previous.data_bytes, 0u);
}

TEST_P(DeliveryService, SuspectOnlyNovelSenderIsReadmittedAfterTtlExpiry) {
  // relax_policy_for_need x suspect set: peer 1's only novel source is
  // peer 0, which crashes mid-transfer (flagged by the liveness timeout,
  // marked suspect) and restarts while still inside its suspect TTL. The
  // starving receiver's admission cutoff relaxes toward 1 as refreshes
  // pass — but relaxation widens the *policy*, never the candidate pool:
  // a suspect stays excluded until the TTL expires, and only then does
  // the (relaxed) admission re-form the session and finish the download.
  auto plan = std::make_shared<FaultPlan>();
  plan->crashes.push_back({30, 0});
  plan->restarts.push_back({55, 0});
  DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 51;
  options.refresh_interval = 25;
  options.faults = plan;
  options.liveness_timeout_ticks = 12;
  options.max_handshake_retries = 4;
  options.suspect_ttl_ticks = 60;
  const auto content = random_content(64 * 60, 77);
  auto service = make(content, options);
  service.add_peer("source", true);
  service.add_peer("leaf", false);

  // Restarted and alive — but still suspect, so refreshes (with ever more
  // relaxed cutoffs: the leaf is starving) must not re-admit peer 0. The
  // leaf holds nothing to serve, so no link is up at all.
  for (std::size_t t = 0; t < 90; ++t) service.tick();
  EXPECT_FALSE(service.peer_down(0));
  EXPECT_FALSE(service.peer_complete(1));
  EXPECT_EQ(service.active_link_totals(), LinkTotals{});

  ASSERT_TRUE(service.run(8000));
  EXPECT_TRUE(service.peer_complete(1));
  EXPECT_EQ(service.peer_content(1), content);

  // The abandoned session was diagnosed, and completion waited out the
  // suspect window (failure tick + TTL) rather than racing the restart.
  const auto result = service.session_result(1);
  ASSERT_FALSE(result.failed_peers.empty());
  EXPECT_EQ(result.failed_peers.front().peer, 0u);
  EXPECT_EQ(result.failed_peers.front().reason,
            FailedPeer::Reason::kLivenessTimeout);
  EXPECT_GE(service.peer_completion_tick(1),
            result.failed_peers.front().tick + options.suspect_ttl_ticks);
}

TEST_P(DeliveryService, TicksAreCountedAndContentIsStable) {
  const auto content = random_content(64 * 50, 5);
  auto service = make(content, small_options());
  const auto id = service.add_peer("a", true);
  EXPECT_EQ(service.ticks(), 0u);
  service.tick();
  EXPECT_EQ(service.ticks(), 1u);
  ASSERT_TRUE(service.run(2000));
  const auto first = service.peer_content(id);
  service.tick();  // extra ticks change nothing for completed peers
  EXPECT_EQ(service.peer_content(id), first);
}

// --- Flow control by default ------------------------------------------------

TEST(FlowControlDefault, OnForTheEngineOffForTheSwarmHarness) {
  // Paper §6.1: each receiver states how many symbols it wants, and its
  // senders stop there. The real-UDP swarm's sessions keep the loop open,
  // because quota-bound serving is what makes its byte prediction exact.
  EXPECT_TRUE(DeliveryOptions{}.flow_control);
  SwarmSpec spec;
  spec.nodes = 3;
  spec.n = 40;
  spec.build_full_mesh(0);  // ports unused
  const SwarmWorld world = build_swarm_world(spec);
  ASSERT_EQ(spec.edges.size(), 6u);
  for (std::size_t e = 0; e < spec.edges.size(); ++e) {
    EXPECT_FALSE(swarm_session_options(spec, world, e).flow_control)
        << "edge " << e;
  }
}

TEST(FlowControlDefault, DefaultSwarmCompletesOnFewerDataFrames) {
  // An untimed swarm at the default options against the same swarm and
  // seed with the loop open: every peer completes, and senders that stop
  // at the receiver's request send strictly fewer data frames.
  const auto content = random_content(64 * 60, 24);
  const auto data_frames = [&content](const DeliveryOptions& options) {
    ShardedDelivery engine(content, options);
    engine.add_mirror();
    for (std::size_t p = 0; p < 5; ++p) {
      std::string name = "p";
      name += std::to_string(p);
      engine.add_peer(name, p < 2);
    }
    EXPECT_TRUE(engine.run(5000));
    for (std::size_t p = 0; p < engine.peer_count(); ++p) {
      EXPECT_EQ(engine.peer_content(p), content) << "peer " << p;
    }
    return engine.link_totals().data_frames;
  };
  const DeliveryOptions defaults = small_options();
  DeliveryOptions open_loop = small_options();
  open_loop.flow_control = false;
  EXPECT_LT(data_frames(defaults), data_frames(open_loop));
}

// --- The Section 2.1 environment ---------------------------------------------
// An overlay must cope with asynchrony, heterogeneity, transience and
// adaptivity. These tests gate the qualitative claims on the engine: 8
// peers (2 origin-fed) share 200 blocks of 64 B, and each claim compares
// completion ticks summed over seeds 1-3. Shards = 1 suffices, because
// ShardCountInvariance pins every shard count to the same trajectory.

constexpr std::size_t kOverlayPeers = 8;

DeliveryOptions overlay_options() {
  DeliveryOptions options;
  options.block_size = 64;
  options.refresh_interval = 25;
  options.max_peer_sessions = 2;
  return options;
}

/// Uniformly random senders: a candidate sample no larger than the session
/// cap, every candidate of which admission accepts.
DeliveryOptions random_senders(DeliveryOptions options) {
  options.admission_sample = options.max_peer_sessions;
  options.admission.max_resemblance = 1.0;
  return options;
}

/// Mean completion tick of one overlay run. Every peer must complete with
/// the origin's content.
double overlay_mean_completion(DeliveryOptions options, std::uint64_t seed) {
  const auto content = random_content(64 * 200, seed);
  options.session_seed = seed;
  ShardedDelivery service(content, options);
  for (std::size_t p = 0; p < kOverlayPeers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 2);
  }
  EXPECT_TRUE(service.run(20000)) << "seed " << seed;
  double total = 0;
  for (std::size_t p = 0; p < kOverlayPeers; ++p) {
    EXPECT_EQ(service.peer_content(p), content) << "seed " << seed;
    total += static_cast<double>(service.peer_completion_tick(p));
  }
  return total / static_cast<double>(kOverlayPeers);
}

/// Mean completion ticks summed over seeds 1-3.
double overlay_completion(const DeliveryOptions& options) {
  double sum = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sum += overlay_mean_completion(options, seed);
  }
  return sum;
}

TEST(AdaptiveOverlay, SketchAdmissionBeatsRandomSenders) {
  // Ranking the whole pool by sketch novelty steers each receiver to the
  // senders with the most content it lacks.
  const double informed = overlay_completion(overlay_options());
  const double random = overlay_completion(random_senders(overlay_options()));
  EXPECT_LT(informed, random);
}

TEST(AdaptiveOverlay, LossSlowsButNeverBreaksDelivery) {
  // 30% loss on every peer link: slower, yet every peer still completes.
  auto lossy = overlay_options();
  lossy.link.loss_rate = 0.3;
  EXPECT_LT(overlay_completion(overlay_options()), overlay_completion(lossy));
}

TEST(AdaptiveOverlay, RefreshCadenceIsTheAdaptation) {
  // Re-running admission often follows the swarm as working sets change;
  // a slow cadence leaves receivers on stale senders.
  auto stale = overlay_options();
  stale.refresh_interval = 400;
  EXPECT_LT(overlay_completion(overlay_options()), overlay_completion(stale));
}

TEST(AdaptiveOverlay, HeavyReorderingStillDelivers) {
  // Every adjacent frame pair swaps, on untimed links and on links with a
  // 2 +/- 1 tick delay (1 tick plus up to 2 of jitter).
  auto untimed = overlay_options();
  untimed.link.reorder_rate = 1.0;
  auto delayed = untimed;
  delayed.link.delay_ticks = 1;
  delayed.link.jitter_ticks = 2;
  for (const DeliveryOptions& options : {untimed, delayed}) {
    SCOPED_TRACE(options.link.timed() ? "delayed" : "untimed");
    overlay_completion(options);  // checks every peer's content
  }
}

}  // namespace
}  // namespace icd::core
