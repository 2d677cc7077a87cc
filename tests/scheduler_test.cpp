// Simulated-time scheduling: the LossyChannel virtual clock (RTT, jitter
// distributions, the token-bucket rate limit), closed-loop flow control
// (Request re-issue stops senders at satisfaction), the per-download tick
// rule (DownloadLink's send phase, receive phase and jump plan) that the
// engine and bench_latency both run, and the jumping-vs-lockstep
// trajectory equality gates under timed, lossy, reordering links, with and
// without faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/endpoint.hpp"
#include "core/origin.hpp"
#include "core/sharded_delivery.hpp"
#include "util/random.hpp"
#include "wire/channel.hpp"
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

std::vector<std::uint8_t> tagged_frame(std::uint16_t tag,
                                       std::size_t size = 32) {
  std::vector<std::uint8_t> frame(size, 0);
  frame[0] = static_cast<std::uint8_t>(tag);
  frame[1] = static_cast<std::uint8_t>(tag >> 8);
  return frame;
}

std::uint16_t frame_tag(const std::vector<std::uint8_t>& frame) {
  return static_cast<std::uint16_t>(frame[0] |
                                    (static_cast<std::uint16_t>(frame[1])
                                     << 8));
}

// --- TimedFrameQueue sort invariant -----------------------------------------

TEST(TimedFrameQueue, ReorderSwapKeepsQueueSortedAndNextArrivalTrue) {
  wire::TimedFrameQueue queue;
  queue.insert({10, 0, tagged_frame(0)}, false);
  queue.insert({12, 1, tagged_frame(1)}, false);
  // The swap exchanges arrivals with the latest-scheduled frame (seq 1,
  // arrival 12): frame 1 now arrives at 9 and must surface at the front,
  // not stay buried behind frame 0.
  queue.insert({9, 2, tagged_frame(2)}, true);
  ASSERT_EQ(queue.next_arrival(), std::optional<std::uint64_t>{9});
  auto first = queue.pop_due(9);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(frame_tag(*first), 1u);
  EXPECT_EQ(queue.next_arrival(), std::optional<std::uint64_t>{10});
  EXPECT_FALSE(queue.pop_due(9).has_value());
  EXPECT_EQ(frame_tag(*queue.pop_due(10)), 0u);
  EXPECT_EQ(frame_tag(*queue.pop_due(12)), 2u);  // took arrival 12 in swap
  EXPECT_TRUE(queue.empty());
}

// --- Virtual clock: propagation delay, jitter -------------------------------

TEST(TimedChannel, PropagationDelayHoldsFramesUntilDue) {
  wire::ChannelConfig config;
  config.delay_ticks = 5;
  config.seed = 1;
  wire::LossyChannel channel(config);
  ASSERT_TRUE(channel.timed());
  ASSERT_TRUE(channel.send(tagged_frame(42)));

  for (std::uint64_t t = 0; t < 5; ++t) {
    channel.advance_to(t);
    EXPECT_TRUE(channel.receive().empty()) << "tick " << t;
    EXPECT_TRUE(channel.pending());
  }
  channel.advance_to(5);
  const auto frame = channel.receive();
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame_tag(frame), 42u);
  EXPECT_FALSE(channel.pending());
  EXPECT_EQ(channel.next_arrival_at(), std::nullopt);
}

TEST(TimedChannel, JitterSpreadsArrivalsWithinBound) {
  wire::ChannelConfig config;
  config.delay_ticks = 3;
  config.jitter_ticks = 6;
  config.seed = 3;
  wire::LossyChannel channel(config);
  constexpr std::size_t kFrames = 300;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel.send(tagged_frame(static_cast<std::uint16_t>(i))));
  }
  // All sent at t = 0: arrivals must land in [delay, delay + jitter], and
  // a 0..6 uniform draw over 300 frames must actually spread (>= 4 of the
  // 7 possible ticks occupied — loose enough to never flake).
  std::size_t delivered = 0;
  std::set<std::uint64_t> occupied_ticks;
  for (std::uint64_t t = 0; t <= 9; ++t) {
    channel.advance_to(t);
    std::size_t at_tick = 0;
    while (true) {
      const auto frame = channel.receive();
      if (frame.empty()) break;
      ++at_tick;
    }
    if (at_tick > 0) {
      EXPECT_GE(t, 3u) << "arrival before the propagation delay";
      occupied_ticks.insert(t);
    }
    delivered += at_tick;
  }
  EXPECT_EQ(delivered, kFrames);
  EXPECT_GE(occupied_ticks.size(), 4u);
}

TEST(TimedChannel, JitterReordersSendOrder) {
  wire::ChannelConfig config;
  config.delay_ticks = 1;
  config.jitter_ticks = 8;
  config.seed = 4;
  wire::LossyChannel channel(config);
  constexpr std::size_t kFrames = 200;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel.send(tagged_frame(static_cast<std::uint16_t>(i))));
  }
  channel.advance_to(100);
  std::vector<std::uint16_t> order;
  while (channel.pending()) order.push_back(frame_tag(channel.receive()));
  ASSERT_EQ(order.size(), kFrames);
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 0u) << "independent jitter draws must reorder";
  // Everything still arrives exactly once.
  std::vector<std::uint16_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < kFrames; ++i) EXPECT_EQ(sorted[i], i);
}

// --- Token bucket -----------------------------------------------------------

TEST(TimedChannel, TokenBucketConservesRate) {
  wire::ChannelConfig config;
  config.rate_bytes_per_tick = 100.0;
  config.mtu = 500;  // bucket = max(mtu, rate) = 500 bytes
  config.seed = 5;
  wire::LossyChannel channel(config);
  // Saturate: offer 5x the link rate every tick for 200 ticks.
  constexpr std::uint64_t kTicks = 200;
  std::size_t delivered_bytes = 0;
  for (std::uint64_t t = 0; t < kTicks; ++t) {
    channel.advance_to(t);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(channel.send(tagged_frame(0, /*size=*/100)));
    }
    while (true) {
      const auto frame = channel.receive();
      if (frame.empty()) break;
      delivered_bytes += frame.size();
    }
  }
  // Conservation: arrivals by tick T never exceed rate * T + burst...
  EXPECT_LE(delivered_bytes, 100 * (kTicks - 1) + 500);
  // ...and a saturated link runs at its full rate (loose floor).
  EXPECT_GE(delivered_bytes, 100 * (kTicks - 1) - 500);
  EXPECT_GT(channel.throttled(), 0u);
}

TEST(TimedChannel, SendReadyAtTracksBucketFill) {
  wire::ChannelConfig config;
  config.rate_bytes_per_tick = 100.0;
  config.mtu = 1000;  // bucket = 1000 bytes
  config.seed = 6;
  wire::LossyChannel channel(config);
  EXPECT_EQ(channel.send_ready_at(1000), 0u);  // full bucket
  ASSERT_TRUE(channel.send(tagged_frame(0, 1000)));  // drains it
  // 600 more bytes need 6 ticks of refill.
  EXPECT_EQ(channel.send_ready_at(600), 6u);
  channel.advance_to(6);
  EXPECT_EQ(channel.send_ready_at(600), 6u);
}

TEST(TimedChannel, SendReadyAtIsReachableForFramesLargerThanBurst) {
  wire::ChannelConfig config;
  config.rate_bytes_per_tick = 100.0;
  config.mtu = 512;  // bucket = 512 bytes
  config.seed = 8;
  wire::LossyChannel channel(config);
  ASSERT_TRUE(channel.send(tagged_frame(0, 512)));  // drain the bucket
  // Probing with a frame bigger than the bucket (a size hint above the
  // MTU) must name a time that satisfies itself once reached — a full
  // bucket — not a horizon that recedes forever.
  const std::uint64_t ready = channel.send_ready_at(1088);
  EXPECT_EQ(ready, 6u);
  channel.advance_to(ready);
  EXPECT_EQ(channel.send_ready_at(1088), ready);
  ASSERT_TRUE(channel.send(tagged_frame(1, 512)));
}

TEST(TimedChannel, FlushCollapsesArrivalsForTeardown) {
  wire::ChannelConfig config;
  config.delay_ticks = 50;
  config.seed = 7;
  wire::LossyChannel channel(config);
  ASSERT_TRUE(channel.send(tagged_frame(1)));
  ASSERT_TRUE(channel.send(tagged_frame(2)));
  EXPECT_TRUE(channel.receive().empty());
  channel.flush();
  EXPECT_EQ(frame_tag(channel.receive()), 1u);
  EXPECT_EQ(frame_tag(channel.receive()), 2u);
}

// --- Flow control: Request re-issue stops senders ---------------------------

struct EndpointFixture {
  static constexpr std::size_t kBlocks = 200;
  static constexpr std::size_t kBlockSize = 24;

  EndpointFixture()
      : content(random_content(kBlocks * kBlockSize, 99)),
        origin(content, kBlockSize,
               codec::DegreeDistribution::robust_soliton(kBlocks), 555) {}

  core::Peer make_peer(const std::string& name, std::size_t preload) {
    core::Peer peer(name, origin.parameters(),
                    codec::DegreeDistribution::robust_soliton(kBlocks));
    for (std::size_t i = 0; i < preload; ++i) {
      peer.receive_encoded(origin.next());
    }
    return peer;
  }

  std::vector<std::uint8_t> content;
  core::OriginServer origin;
};

TEST(FlowControl, SenderStopsAtRequestSatisfaction) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);

  core::SessionOptions options;
  options.strategy = overlay::Strategy::kRandom;
  options.flow_control = true;
  options.requested_symbols = 40;

  wire::Pipe pipe(1024);
  core::SenderEndpoint sender(sender_peer, options, pipe.a());
  core::ReceiverEndpoint receiver(receiver_peer, options, pipe.b());
  receiver.start();

  std::vector<std::uint64_t> remaining_seen;
  std::size_t rounds = 0;
  for (; rounds < 2000 && !sender.satisfied(); ++rounds) {
    sender.tick();
    sender.send_symbol();
    receiver.tick();
    if (auto remaining = sender.receiver_remaining()) {
      if (remaining_seen.empty() || remaining_seen.back() != *remaining) {
        remaining_seen.push_back(*remaining);
      }
    }
  }
  ASSERT_TRUE(sender.satisfied()) << "no stop after " << rounds << " rounds";
  EXPECT_TRUE(receiver.satisfied());
  EXPECT_GE(receiver.new_encoded_symbols(), options.requested_symbols);

  // The re-issued counts decrement monotonically down to the zero stop.
  ASSERT_GE(remaining_seen.size(), 2u);
  for (std::size_t i = 1; i < remaining_seen.size(); ++i) {
    EXPECT_LT(remaining_seen[i], remaining_seen[i - 1]);
  }
  EXPECT_EQ(remaining_seen.back(), 0u);

  // Provably stopped: further driving sends no further symbols.
  const std::size_t sent_at_stop = sender.symbols_sent();
  for (int i = 0; i < 50; ++i) {
    sender.tick();
    EXPECT_FALSE(sender.send_symbol());
    receiver.tick();
  }
  EXPECT_EQ(sender.symbols_sent(), sent_at_stop);
}

TEST(FlowControl, StopSurvivesLossOnTimedLinks) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);

  core::SessionOptions options;
  options.strategy = overlay::Strategy::kRandom;
  options.flow_control = true;
  options.requested_symbols = 30;
  options.handshake_retry_ticks = 16;

  wire::ChannelConfig link;
  link.loss_rate = 0.15;
  link.delay_ticks = 3;
  link.jitter_ticks = 2;
  link.rate_bytes_per_tick = 2000.0;
  link.seed = 77;
  wire::ChannelLink channel(link);
  core::SenderEndpoint sender(sender_peer, options, channel.a());
  core::ReceiverEndpoint receiver(receiver_peer, options, channel.b());
  receiver.start();

  std::size_t t = 0;
  for (; t < 5000 && !sender.satisfied(); ++t) {
    channel.advance_to(t);
    sender.tick();
    sender.send_symbol();
    receiver.tick();
  }
  // The stop is re-issued while in-flight symbols keep landing, so even at
  // 15% loss the sender hears it.
  ASSERT_TRUE(sender.satisfied()) << "no stop after " << t << " ticks";
  EXPECT_GE(receiver.new_encoded_symbols(), options.requested_symbols);
}

// --- The per-download rule: DownloadLink -------------------------------------

core::SessionOptions random_options() {
  core::SessionOptions options;
  options.strategy = overlay::Strategy::kRandom;
  return options;
}

TEST(DownloadLinkRule, UntimedLinkIsDueEveryTickInEveryState) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);
  core::SessionOptions options = random_options();
  options.flow_control = true;
  options.requested_symbols = 20;
  wire::ChannelConfig config;  // no timing knob: the event clock
  config.seed = 5;
  core::DownloadLink download(sender_peer, receiver_peer, options, config,
                              EndpointFixture::kBlockSize);
  ASSERT_FALSE(download.link.timed());
  EXPECT_EQ(download.due_at(0, false), 0u);  // not even started
  download.receiver.start();
  // Through the handshake, the transfer and the stop.
  std::uint64_t t = 0;
  for (; t < 200; ++t) {
    EXPECT_EQ(download.due_at(t, false), t) << "tick " << t;
    EXPECT_EQ(download.due_at(t, true), t) << "tick " << t;
    download.send_phase(t, false);
    download.receive_phase(t);
  }
  // Drained, with a satisfied sender: a timed link would plan nothing.
  ASSERT_TRUE(download.sender.satisfied());
  ASSERT_EQ(download.link.next_event_time(), std::nullopt);
  EXPECT_EQ(download.due_at(t, false), t);
  EXPECT_EQ(download.due_at(t, true), t);
}

TEST(DownloadLinkRule, TimedLinkIsDueNowUntilTheReceiverIsServiced) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);
  wire::ChannelConfig config;
  config.delay_ticks = 5;
  config.seed = 5;
  core::DownloadLink download(sender_peer, receiver_peer, random_options(),
                              config, EndpointFixture::kBlockSize);
  download.receiver.start();  // the bundle lands at tick 5
  ASSERT_EQ(download.link.next_event_time(), std::optional<std::uint64_t>{5});
  // No retry baseline yet: conservatively due at once, sender up or down.
  EXPECT_EQ(download.due_at(0, false), 0u);
  EXPECT_EQ(download.due_at(3, true), 3u);
}

TEST(DownloadLinkRule, HandshakeEatenByBlackoutIsDueAtTheRetry) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);
  wire::ChannelConfig config;
  config.delay_ticks = 2;
  config.seed = 5;
  core::DownloadLink download(sender_peer, receiver_peer, random_options(),
                              config, EndpointFixture::kBlockSize);
  download.link.set_blackout(true);
  download.receiver.start();
  download.receive_phase(0);
  ASSERT_EQ(download.link.next_event_time(), std::nullopt);
  const auto retry = download.receiver.retry_due_at();
  ASSERT_TRUE(retry.has_value());
  EXPECT_GT(*retry, 1u);
  EXPECT_EQ(download.due_at(1, false), retry);
}

TEST(DownloadLinkRule, DrainedTransferWaitsForCreditOrLiveness) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);
  core::SessionOptions options = random_options();
  options.liveness_timeout_ticks = 5000;
  wire::ChannelConfig config;
  config.delay_ticks = 1;
  config.rate_bytes_per_tick = 4.0;  // a data frame of credit every ~10 ticks
  config.seed = 5;
  core::DownloadLink download(sender_peer, receiver_peer, options, config,
                              EndpointFixture::kBlockSize);
  const std::size_t probe = EndpointFixture::kBlockSize + 64;
  download.receiver.start();
  // Lockstep until, planning for the next tick as the engine does, the link
  // is drained while the unsatisfied sender waits on its token bucket.
  bool checked = false;
  for (std::uint64_t t = 0; t < 2000 && !checked; ++t) {
    download.send_phase(t, false);
    download.receive_phase(t);
    const std::uint64_t next = t + 1;
    const std::uint64_t credit = download.link.a_send_ready_at(probe);
    if (!download.receiver.transfer_started() ||
        !download.sender.transfer_active() || download.sender.satisfied() ||
        download.link.next_event_time() || credit <= next) {
      continue;
    }
    const auto liveness = download.receiver.liveness_due_at();
    ASSERT_TRUE(liveness.has_value());
    ASSERT_LT(credit, *liveness);
    EXPECT_EQ(download.due_at(next, false), credit);
    // A down sender sends nothing: only the liveness expiry remains.
    EXPECT_EQ(download.due_at(next, true), liveness);
    checked = true;
  }
  EXPECT_TRUE(checked) << "never reached a drained, credit-bound transfer";
}

TEST(DownloadLinkRule, DownSenderAdvancesTheLinkButSendsNothing) {
  EndpointFixture fixture;
  core::Peer sender_peer = fixture.make_peer("sender", 260);
  core::Peer receiver_peer = fixture.make_peer("receiver", 0);
  wire::ChannelConfig config;
  config.delay_ticks = 1;
  config.seed = 5;
  core::DownloadLink download(sender_peer, receiver_peer, random_options(),
                              config, EndpointFixture::kBlockSize);
  download.receiver.start();
  std::uint64_t t = 0;
  for (; t < 100 && !download.sender.transfer_active(); ++t) {
    download.send_phase(t, false);
    download.receive_phase(t);
  }
  ASSERT_TRUE(download.sender.transfer_active());
  const std::size_t sent = download.sender.symbols_sent();
  download.send_phase(t, false);
  ASSERT_GT(download.sender.symbols_sent(), sent);  // an up sender sends

  const std::size_t sent_before_down = download.sender.symbols_sent();
  download.send_phase(t + 10, true);
  EXPECT_EQ(download.link.a_to_b().now(), t + 10);
  EXPECT_EQ(download.link.b_to_a().now(), t + 10);
  EXPECT_EQ(download.sender.symbols_sent(), sent_before_down);
}

// --- Scheduler-driven servicing: timed swarms -------------------------------

core::DeliveryOptions timed_options() {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 29;
  options.refresh_interval = 40;
  options.link.loss_rate = 0.06;
  options.link.reorder_rate = 0.05;
  options.link.mtu = 600;
  options.link.delay_ticks = 2;
  options.link.jitter_ticks = 1;
  options.link.rate_bytes_per_tick = 1800.0;
  return options;
}

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

TEST(SchedulerEngine, RateLimitedAsymmetricSwarmCompletesMultiShard) {
  auto options = timed_options();
  // Asymmetric per-edge shaping: odd edges are slow, high-RTT paths.
  options.link_config = [](std::size_t sender,
                           std::size_t receiver) -> wire::ChannelConfig {
    wire::ChannelConfig config;
    config.mtu = 600;
    config.loss_rate = 0.05;
    config.delay_ticks = ((sender + receiver) % 2 == 0) ? 1 : 6;
    config.jitter_ticks = 2;
    config.rate_bytes_per_tick =
        ((sender + receiver) % 2 == 0) ? 2400.0 : 900.0;
    return config;
  };
  const auto content = random_content(64 * 50, 32);
  const std::size_t peers = 8;
  core::ShardedDelivery service(content, options,
                                core::ShardOptions{/*shards=*/4});
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 2);
  }
  ASSERT_TRUE(service.run(20000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(service.peer_content(p), content);
  }
}

TEST(SchedulerEngine, FrameHintLargerThanBurstDoesNotStarveDownloads) {
  // block_size 1024 makes the send-credit probe's frame hint exceed the
  // default bucket (max(mtu, rate) = 1024): the probe must still grant
  // credit or every download on this link config would stall forever.
  core::DeliveryOptions options;
  options.block_size = 1024;
  options.session_seed = 35;
  options.refresh_interval = 60;
  options.link.mtu = 1024;
  options.link.delay_ticks = 1;
  options.link.rate_bytes_per_tick = 700.0;
  const auto content = random_content(1024 * 20, 36);
  const std::size_t peers = 3;
  core::ShardedDelivery service(content, options);
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 1);
  }
  ASSERT_TRUE(service.run(30000));
  for (std::size_t p = 0; p < peers; ++p) {
    EXPECT_EQ(service.peer_content(p), content);
  }
}

// --- Event loop vs lockstep: trajectory equality gates -----------------------

/// Timing knobs chosen so empty spans actually exist (high-ish RTT, paced
/// links) with delay, jitter, rate, loss and reorder all on at once.
core::DeliveryOptions jumpy_options(overlay::Strategy strategy) {
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 41;
  options.refresh_interval = 60;
  options.strategy = strategy;
  options.handshake_retry_ticks = 24;
  options.link.loss_rate = 0.06;
  options.link.reorder_rate = 0.05;
  options.link.mtu = 600;
  options.link.delay_ticks = 6;
  options.link.jitter_ticks = 2;
  options.link.rate_bytes_per_tick = 250.0;
  return options;
}

/// Drives the engine tick by tick — the lockstep loop, no jumping.
void drive_lockstep(core::ShardedDelivery& service, std::size_t max_ticks) {
  for (std::size_t t = 0; t < max_ticks; ++t) {
    service.tick();
    bool all = true;
    for (std::size_t p = 0; p < service.peer_count(); ++p) {
      all = all && service.peer_complete(p);
    }
    if (all) return;
  }
}

void add_peers(core::ShardedDelivery& service, std::size_t peers) {
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < 2);
  }
}

void expect_same_trajectory(const core::ShardedDelivery& lockstep,
                            const core::ShardedDelivery& jumped,
                            std::size_t peers) {
  for (std::size_t p = 0; p < peers; ++p) {
    ASSERT_NE(lockstep.peer_completion_tick(p), 0u) << "peer " << p;
    EXPECT_EQ(lockstep.peer_completion_tick(p), jumped.peer_completion_tick(p))
        << "peer " << p;
    EXPECT_EQ(lockstep.peer_content(p), jumped.peer_content(p)) << "peer " << p;
  }
  const auto lockstep_totals = lockstep.link_totals();
  const auto jumped_totals = jumped.link_totals();
  EXPECT_EQ(lockstep_totals.control_bytes, jumped_totals.control_bytes);
  EXPECT_EQ(lockstep_totals.control_frames, jumped_totals.control_frames);
  EXPECT_EQ(lockstep_totals.data_bytes, jumped_totals.data_bytes);
  EXPECT_EQ(lockstep_totals.data_frames, jumped_totals.data_frames);
}

TEST(EventLoopEngine, JumpedRunMatchesLockstepForEveryStrategy) {
  const auto content = random_content(64 * 40, 43);
  const std::size_t peers = 4;
  const std::vector<overlay::Strategy> strategies{
      overlay::Strategy::kRandom, overlay::Strategy::kRandomBloom,
      overlay::Strategy::kRecode, overlay::Strategy::kRecodeBloom,
      overlay::Strategy::kRecodeMinwise};
  std::uint64_t total_skipped = 0;
  for (const auto strategy : strategies) {
    core::ShardedDelivery lockstep(content, jumpy_options(strategy));
    core::ShardedDelivery jumped(content, jumpy_options(strategy));
    add_peers(lockstep, peers);
    add_peers(jumped, peers);
    drive_lockstep(lockstep, 30000);
    EXPECT_TRUE(jumped.run(30000));
    expect_same_trajectory(lockstep, jumped, peers);
    EXPECT_EQ(lockstep.ticks_skipped(), 0u);
    total_skipped += jumped.ticks_skipped();
  }
  // The jump mechanism must have engaged somewhere across the strategies
  // (origin-fed peers pin early ticks; the paced tail is where spans
  // open up).
  EXPECT_GT(total_skipped, 0u);
}

TEST(EventLoopEngine, JumpedRunMatchesLockstepSharded1And4) {
  const auto content = random_content(64 * 40, 44);
  const std::size_t peers = 8;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const auto options = jumpy_options(overlay::Strategy::kRecodeBloom);
    core::ShardedDelivery lockstep(content, options,
                                   core::ShardOptions{shards});
    core::ShardedDelivery jumped(content, options,
                                 core::ShardOptions{shards});
    add_peers(lockstep, peers);
    add_peers(jumped, peers);
    drive_lockstep(lockstep, 30000);
    EXPECT_TRUE(jumped.run(30000)) << shards << " shards";
    expect_same_trajectory(lockstep, jumped, peers);
  }
}

// --- Fault-enabled equality: the contract survives churn --------------------

/// Timed, lossy, paced links plus a full fault schedule: a crash/restart,
/// a stall window, a flash-crowd join, and a link blackout — the scenario
/// every engine and driver must reproduce tick-for-tick.
core::DeliveryOptions faulty_options() {
  auto options = jumpy_options(overlay::Strategy::kRecodeBloom);
  auto plan = std::make_shared<core::FaultPlan>();
  plan->crashes.push_back({120, 3});
  plan->restarts.push_back({300, 3});
  plan->stalls.push_back({150, 250, 2});
  plan->joins.push_back({200, 1, false});
  plan->blackouts.push_back({80, 160, 0, 1});
  options.faults = std::move(plan);
  options.liveness_timeout_ticks = 30;
  options.handshake_backoff_factor = 2;
  options.handshake_backoff_cap_ticks = 64;
  options.max_handshake_retries = 6;
  options.suspect_ttl_ticks = 60;
  return options;
}

/// Lockstep driver that keeps ticking until every peer (including late
/// joiners) is complete and every scheduled fault has fired.
void drive_lockstep_past_faults(core::ShardedDelivery& service,
                                std::size_t max_ticks) {
  for (std::size_t t = 0; t < max_ticks; ++t) {
    service.tick();
    if (service.ticks() <= 300) continue;  // the last scheduled fault
    bool all = true;
    for (std::size_t p = 0; p < service.peer_count(); ++p) {
      all = all && service.peer_complete(p);
    }
    if (all) return;
  }
}

TEST(EventLoopEngine, ShardedJumpMatchesLockstepWithFaultsEnabled) {
  // The event-loop jump must land exactly on every fault boundary (the
  // jump target folds in the next one) — a jump that overshot a crash
  // tick or a blackout edge would diverge from the lockstep trajectory
  // immediately.
  const auto content = random_content(64 * 40, 47);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    core::ShardedDelivery lockstep(content, faulty_options(),
                                   core::ShardOptions{shards});
    core::ShardedDelivery jumped(content, faulty_options(),
                                 core::ShardOptions{shards});
    add_peers(lockstep, 6);
    add_peers(jumped, 6);
    drive_lockstep_past_faults(lockstep, 30000);
    EXPECT_TRUE(jumped.run(30000)) << shards << " shards";
    ASSERT_EQ(lockstep.peer_count(), jumped.peer_count());
    expect_same_trajectory(lockstep, jumped, lockstep.peer_count());
    EXPECT_GT(jumped.ticks_skipped(), 0u)
        << shards << " shards: the jump never engaged";
  }
}

TEST(SchedulerEngine, FlowControlAloneKeepsLegacyTrajectory) {
  // Flow control changes when senders *stop*, not what they send: on
  // perfect untimed links a session stopped early only trims redundant
  // tail symbols, and completion must not regress vs a generous tick cap.
  core::DeliveryOptions options;
  options.block_size = 64;
  options.session_seed = 33;
  options.refresh_interval = 25;
  options.flow_control = true;
  const auto content = random_content(64 * 60, 34);
  const std::size_t peers = 5;
  core::ShardedDelivery with_fc(content, options);
  options.flow_control = false;
  core::ShardedDelivery without_fc(content, options);
  for (std::size_t p = 0; p < peers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    with_fc.add_peer(name, p < 2);
    without_fc.add_peer(name, p < 2);
  }
  const auto with_completion = drive(with_fc, peers, 8000);
  const auto without_completion = drive(without_fc, peers, 8000);
  for (std::size_t p = 0; p < peers; ++p) {
    ASSERT_NE(with_completion[p], 0u);
    ASSERT_NE(without_completion[p], 0u);
  }
  // Stopped senders send no more than streaming ones.
  EXPECT_LE(with_fc.link_totals().data_frames,
            without_fc.link_totals().data_frames);
}

}  // namespace
}  // namespace icd
