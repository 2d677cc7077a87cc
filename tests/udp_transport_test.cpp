// Tests for the real-network backend: wire::Transport over non-blocking
// UDP on loopback. The load-bearing property is byte equivalence — a
// UdpTransport must put exactly the frames on the wire that an in-process
// Pipe does for the same script — plus the substrate concerns the Pipe
// never faces: truncated and garbage datagrams off the network, and the
// pooled receive path reaching a steady state without allocation.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "art/art_summary.hpp"
#include "art/reconciliation_tree.hpp"
#include "core/swarm.hpp"
#include "wire/transport.hpp"
#include "wire/udp.hpp"

namespace icd::wire {
namespace {

/// Bind two sockets first, then cross-connect — the straightforward way to
/// stand up a loopback pair when both ends live in one process. Transports
/// are heap-held: a Transport is pinned once constructed (it hands out
/// views into its own receive buffer).
std::pair<std::unique_ptr<UdpTransport>, std::unique_ptr<UdpTransport>>
make_loopback_pair(std::size_t mtu) {
  UdpSocket sa = UdpSocket::bind("127.0.0.1", 0);
  UdpSocket sb = UdpSocket::bind("127.0.0.1", 0);
  const std::uint16_t pa = sa.local_port();
  const std::uint16_t pb = sb.local_port();
  sa.connect("127.0.0.1", pb);
  sb.connect("127.0.0.1", pa);
  return {std::make_unique<UdpTransport>(std::move(sa), mtu),
          std::make_unique<UdpTransport>(std::move(sb), mtu)};
}

/// Loopback delivery is effectively synchronous, but give the kernel a few
/// retries before declaring a datagram lost. Views in the result borrow
/// the transport until its next receive.
std::optional<DecodedFrame> frame_within(Transport& transport,
                                         int attempts = 2000) {
  for (int i = 0; i < attempts; ++i) {
    if (auto frame = transport.receive_frame()) return frame;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return std::nullopt;
}

/// frame_within for a control message; a symbol frame fails the test.
std::optional<Message> receive_within(Transport& transport,
                                      int attempts = 2000) {
  auto frame = frame_within(transport, attempts);
  if (!frame) return std::nullopt;
  auto* message = std::get_if<Message>(&*frame);
  if (message == nullptr) {
    ADD_FAILURE() << "symbol frame where a control message was expected";
    return std::nullopt;
  }
  return std::move(*message);
}

/// Every control message type that user code sends whole (Fragment is
/// produced only by the transport itself during fragmentation).
std::vector<Message> sample_messages() {
  std::vector<Message> messages;
  messages.emplace_back(Hello{1234, 0xdeadbeefULL, 567});
  messages.emplace_back(Request{987654});
  messages.emplace_back(RequestUpdate{12});
  sketch::MinwiseSketch sketch(1 << 20, 16);
  sketch.update_all({1, 2, 3, 99});
  messages.emplace_back(SketchMessage{sketch});
  auto filter = filter::BloomFilter::with_bits_per_element(64, 8.0);
  for (std::uint64_t i = 0; i < 64; ++i) filter.insert(i * 7);
  messages.emplace_back(BloomSummaryMessage{filter});
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 100; ++i) keys.push_back(i * 1337);
  messages.emplace_back(ArtSummaryMessage{
      art::ArtSummary::build(art::ReconciliationTree(keys), 4.0, 4.0)});
  return messages;
}

TEST(UdpTransport, RoundTripsEveryFrameType) {
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  for (const Message& message : sample_messages()) {
    ASSERT_TRUE(a.send(message));
    const auto received = receive_within(b);
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(message_type(*received), message_type(message));
    if (const auto* hello = std::get_if<Hello>(&message)) {
      EXPECT_EQ(std::get<Hello>(*received), *hello);
    }
    if (const auto* request = std::get_if<Request>(&message)) {
      EXPECT_EQ(std::get<Request>(*received), *request);
    }
    if (const auto* sketch = std::get_if<SketchMessage>(&message)) {
      EXPECT_EQ(std::get<SketchMessage>(*received).sketch.minima(),
                sketch->sketch.minima());
    }
  }
  // The two symbol frames, sent from and received as views.
  const codec::EncodedSymbol encoded{42, {1, 2, 3, 4, 5, 6, 7}};
  ASSERT_TRUE(a.send(codec::EncodedSymbolView(encoded)));
  auto frame = frame_within(b);
  ASSERT_TRUE(frame.has_value());
  const auto* encoded_view = std::get_if<codec::EncodedSymbolView>(&*frame);
  ASSERT_NE(encoded_view, nullptr);
  EXPECT_EQ(encoded_view->id, encoded.id);
  EXPECT_TRUE(std::ranges::equal(encoded_view->payload, encoded.payload));
  const codec::RecodedSymbol recoded{{10, 20, 30, 40}, {9, 8, 7}};
  ASSERT_TRUE(a.send(codec::RecodedSymbolView(recoded)));
  frame = frame_within(b);
  ASSERT_TRUE(frame.has_value());
  const auto* recoded_view = std::get_if<codec::RecodedSymbolView>(&*frame);
  ASSERT_NE(recoded_view, nullptr);
  EXPECT_TRUE(
      std::ranges::equal(recoded_view->constituents, recoded.constituents));
  EXPECT_TRUE(std::ranges::equal(recoded_view->payload, recoded.payload));

  EXPECT_EQ(a.stats().messages_sent, sample_messages().size() + 2);
  EXPECT_EQ(b.stats().messages_received, sample_messages().size() + 2);
  EXPECT_EQ(b.stats().malformed_frames, 0u);
  EXPECT_EQ(b.udp_stats().truncated_datagrams, 0u);
}

TEST(UdpTransport, TinyMtuFragmentsAndReassembles) {
  // 96-byte MTU: the Bloom and ART summaries must travel as multi-fragment
  // trains and come out whole on the far side.
  auto [pa, pb] = make_loopback_pair(96);
  UdpTransport &a = *pa, &b = *pb;
  auto filter = filter::BloomFilter::with_bits_per_element(256, 8.0);
  for (std::uint64_t i = 0; i < 256; ++i) filter.insert(i * 31);
  ASSERT_TRUE(a.send(BloomSummaryMessage{filter}));
  EXPECT_GT(a.stats().frames_sent, 1u);  // really fragmented
  const auto received = receive_within(b);
  ASSERT_TRUE(received.has_value());
  ASSERT_TRUE(std::holds_alternative<BloomSummaryMessage>(*received));
  const auto& restored = std::get<BloomSummaryMessage>(*received).filter;
  for (std::uint64_t i = 0; i < 256; ++i) {
    EXPECT_TRUE(restored.contains(i * 31));
  }
  EXPECT_EQ(b.stats().messages_received, 1u);
  EXPECT_EQ(b.stats().stale_fragments, 0u);
}

TEST(UdpTransport, RejectsGarbageAndTruncatedDatagrams) {
  auto [pa, pb] = make_loopback_pair(256);
  UdpTransport &a = *pa, &b = *pb;
  // Inject raw bytes through a's own fd: b's connected socket filters
  // inbound datagrams by source, so the hostile bytes must come from the
  // peer b actually talks to.

  // Pure garbage: wrong magic.
  const std::vector<std::uint8_t> garbage(32, 0xff);
  ASSERT_GT(::send(a.fd(), garbage.data(), garbage.size(), 0), 0);
  // A truncated real frame: valid magic, payload cut short.
  const auto frame = encode_frame(Hello{7, 8, 9});
  ASSERT_GT(::send(a.fd(), frame.data(), 5, 0), 0);
  // An over-MTU datagram: dropped before decode, counted as truncated.
  const std::vector<std::uint8_t> oversized(256 + 64, 0xab);
  ASSERT_GT(::send(a.fd(), oversized.data(), oversized.size(), 0), 0);

  // Give loopback a moment, then drain: nothing decodes, nothing crashes.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int i = 0; i < 10; ++i) {
    b.drain();
    EXPECT_FALSE(b.receive_frame().has_value());
  }
  EXPECT_EQ(b.stats().messages_received, 0u);
  EXPECT_EQ(b.stats().malformed_frames, 2u);
  EXPECT_EQ(b.udp_stats().truncated_datagrams, 1u);

  // The link still works afterwards.
  ASSERT_TRUE(a.send(Request{5}));
  const auto received = receive_within(b);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::get<Request>(*received), Request{5});
}

TEST(UdpTransport, PooledReceivePathReachesSteadyState) {
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  // Warm-up: the first sends and drains populate both private pools.
  for (int round = 0; round < 300; ++round) {
    ASSERT_TRUE(a.send(Request{static_cast<std::uint64_t>(round)}));
    ASSERT_TRUE(receive_within(b).has_value());
  }
  // Steady state: buffers cycle send -> pool and drain -> deliver -> pool,
  // so the hit rate approaches 1 and stays there.
  EXPECT_GT(a.pool().stats().hit_rate(), 0.8);
  EXPECT_GT(b.pool().stats().hit_rate(), 0.8);
  EXPECT_EQ(b.stats().messages_received, 300u);
}

TEST(UdpTransport, EagainBacklogQueuesThenPumpDrainsInOrder) {
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  // Arm the EAGAIN seam: every transmit attempt reports a full kernel
  // queue, so sends must defer into the tx backlog instead of failing.
  a.debug_force_eagain(1000);
  constexpr std::uint64_t kFrames = 50;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a.send(Request{i}));  // handed to the link, not refused
  }
  EXPECT_EQ(a.udp_stats().datagrams_sent, 0u);
  EXPECT_GE(a.udp_stats().deferred_sends, kFrames);
  EXPECT_EQ(a.udp_stats().backlog_dropped, 0u);  // backlog far from its cap
  EXPECT_FALSE(a.pump());  // still armed: nothing can depart

  // Nothing arrived while the seam was armed.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  b.drain();
  EXPECT_FALSE(b.receive_frame().has_value());

  // Recovery: the kernel "unclogs" and one pump flushes the whole backlog
  // in original send order.
  a.debug_force_eagain(0);
  EXPECT_TRUE(a.pump());
  EXPECT_EQ(a.udp_stats().datagrams_sent, kFrames);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    const auto received = receive_within(b);
    ASSERT_TRUE(received.has_value()) << "frame " << i;
    EXPECT_EQ(std::get<Request>(*received), Request{i});
  }
}

TEST(UdpTransport, SendAfterRecoveryKeepsOrderBehindBacklog) {
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  a.debug_force_eagain(10);
  ASSERT_TRUE(a.send(Request{1}));
  ASSERT_TRUE(a.send(Request{2}));
  a.debug_force_eagain(0);
  // The next send must flush the queued frames first — frame order is
  // part of the transport contract even across an EAGAIN episode.
  ASSERT_TRUE(a.send(Request{3}));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto received = receive_within(b);
    ASSERT_TRUE(received.has_value()) << "frame " << i;
    EXPECT_EQ(std::get<Request>(*received), Request{i});
  }
  EXPECT_EQ(a.udp_stats().backlog_dropped, 0u);
}

TEST(UdpTransport, BacklogCapDropsOldestAndKeepsNewest) {
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  constexpr std::size_t kCap = 8;
  constexpr std::uint64_t kFrames = 20;
  a.set_max_backlog(kCap);
  EXPECT_EQ(a.max_backlog(), kCap);
  a.debug_force_eagain(1000);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a.send(Request{i}));  // accepted; overflow is link loss
  }
  // The queue is pinned at the cap — a stalled peer under shaped loss
  // cannot grow memory without bound — and every overflow evicted the
  // oldest datagram, counted as backlog_dropped.
  EXPECT_EQ(a.udp_stats().backlog_dropped, kFrames - kCap);
  EXPECT_EQ(a.udp_stats().datagrams_sent, 0u);

  // Recovery: exactly the newest kCap frames depart, still in order.
  a.debug_force_eagain(0);
  EXPECT_TRUE(a.pump());
  EXPECT_EQ(a.udp_stats().datagrams_sent, kCap);
  for (std::uint64_t i = kFrames - kCap; i < kFrames; ++i) {
    const auto received = receive_within(b);
    ASSERT_TRUE(received.has_value()) << "frame " << i;
    EXPECT_EQ(std::get<Request>(*received), Request{i});
  }
  EXPECT_FALSE(b.receive_frame().has_value());
}

TEST(UdpTransport, ZeroBacklogCapClampsToOne) {
  auto [pa, pb] = make_loopback_pair(1400);
  (void)pb;
  pa->set_max_backlog(0);
  EXPECT_EQ(pa->max_backlog(), 1u);
}

TEST(UdpTransport, DelayShapingHoldsDatagramsForTheConfiguredTime) {
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  b.set_delay_shaping(20000, 5000, 99);  // 20-25ms in-flight

  ASSERT_TRUE(a.send(Request{7}));
  // The datagram lands in the socket almost immediately, but shaping must
  // hold it back: poll for a generous fraction of the delay and see
  // nothing surface.
  const auto start = std::chrono::steady_clock::now();
  bool early = false;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(10)) {
    if (b.receive_frame().has_value()) {
      early = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(early) << "shaped datagram surfaced before its delay";
  EXPECT_GE(b.udp_stats().delayed_datagrams, 1u);

  // After the full delay (plus slack) it must be deliverable.
  const auto received = receive_within(b, 5000);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::get<Request>(*received), Request{7});
}

TEST(UdpTransport, SurvivesInterleavedGarbageBursts) {
  // Bursts of hostile datagrams (wrong magic, truncated frames) arriving
  // between valid ones: every valid frame still decodes, every hostile one
  // is counted and discarded, and the session never wedges.
  auto [pa, pb] = make_loopback_pair(256);
  UdpTransport &a = *pa, &b = *pb;
  const std::vector<std::uint8_t> garbage(32, 0xff);
  const auto truncated = encode_frame(Hello{7, 8, 9});
  constexpr std::uint64_t kRounds = 20;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    ASSERT_GT(::send(a.fd(), garbage.data(), garbage.size(), 0), 0);
    ASSERT_GT(::send(a.fd(), truncated.data(), 5, 0), 0);
    ASSERT_TRUE(a.send(Request{i}));
    const auto received = receive_within(b);
    ASSERT_TRUE(received.has_value()) << "round " << i;
    EXPECT_EQ(std::get<Request>(*received), Request{i});
  }
  EXPECT_EQ(b.stats().messages_received, kRounds);
  EXPECT_EQ(b.stats().malformed_frames, 2 * kRounds);
  EXPECT_EQ(b.udp_stats().truncated_datagrams, 0u);
}

TEST(UdpTransport, LossInjectionDropsDeterministicallyAtTheSocket) {
  const auto run = [](std::uint64_t seed) {
    auto [pa, pb] = make_loopback_pair(1400);
    UdpTransport &a = *pa, &b = *pb;
    b.set_loss_injection(0.5, seed);
    constexpr std::size_t kFrames = 200;
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(a.send(Request{i}));
      // Drain as we go so the kernel socket buffer never overflows —
      // every datagram must reach the injection point.
      for (int spin = 0; spin < 2000; ++spin) {
        b.drain();
        if (b.udp_stats().datagrams_received + b.udp_stats().injected_drops >
            i) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    const auto& stats = b.udp_stats();
    EXPECT_EQ(stats.datagrams_received + stats.injected_drops, kFrames);
    EXPECT_GT(stats.injected_drops, 0u);
    EXPECT_GT(stats.datagrams_received, 0u);
    return stats.injected_drops;
  };
  // Same seed, same traffic -> the same drop pattern: the injection is a
  // deterministic function of the seed, not of wall-clock racing.
  const std::size_t first = run(0xfee1);
  const std::size_t second = run(0xfee1);
  EXPECT_EQ(first, second);
}

/// The same control + data script over a given transport pair; returns the
/// sender-side stats. Mirrors a handshake bundle, a data-plane burst, and
/// one oversized fragmented summary.
TransportStats run_script(Transport& tx, Transport& rx) {
  EXPECT_TRUE(tx.send(Hello{100, 77, 60}));
  sketch::MinwiseSketch sketch(1 << 20, 32);
  for (std::uint64_t i = 0; i < 60; ++i) sketch.update(i * 13);
  EXPECT_TRUE(tx.send(SketchMessage{sketch}));
  EXPECT_TRUE(tx.send(Request{40}));
  for (std::uint64_t i = 0; i < 25; ++i) {
    const std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(i));
    EXPECT_TRUE(tx.send(codec::EncodedSymbolView(i, payload)));
  }
  auto filter = filter::BloomFilter::with_bits_per_element(2048, 8.0);
  for (std::uint64_t i = 0; i < 2048; ++i) filter.insert(i);
  EXPECT_TRUE(tx.send(BloomSummaryMessage{filter}));  // > MTU: fragments
  std::size_t delivered = 0;
  while (delivered < 29) {
    if (!frame_within(rx)) break;
    ++delivered;
  }
  EXPECT_EQ(delivered, 29u);
  return tx.stats();
}

TEST(UdpTransport, ByteAccountingMatchesPipeExactly) {
  // The equivalence the swarm harness rests on: same script, same MTU ->
  // identical sent-side accounting over real UDP and over the in-process
  // Pipe, field by field.
  auto [pa, pb] = make_loopback_pair(1400);
  UdpTransport &a = *pa, &b = *pb;
  const TransportStats udp = run_script(a, b);
  Pipe pipe(1400);
  const TransportStats piped = run_script(pipe.a(), pipe.b());

  EXPECT_EQ(udp.frames_sent, piped.frames_sent);
  EXPECT_EQ(udp.control_frames_sent, piped.control_frames_sent);
  EXPECT_EQ(udp.data_frames_sent, piped.data_frames_sent);
  EXPECT_EQ(udp.bytes_sent, piped.bytes_sent);
  EXPECT_EQ(udp.control_bytes_sent, piped.control_bytes_sent);
  EXPECT_EQ(udp.data_bytes_sent, piped.data_bytes_sent);
  EXPECT_EQ(udp.messages_sent, piped.messages_sent);
  EXPECT_EQ(udp.frames_refused, 0u);
}

// --- SwarmSpec access-class shaping -----------------------------------------

TEST(SwarmSpecShaping, ProfilesAndAccessRoundTripThroughSerialize) {
  core::SwarmSpec spec;
  spec.nodes = 4;
  spec.link_profiles.push_back({"fiber", 0.0, 500, 0});
  spec.link_profiles.push_back({"dsl", 0.02, 8000, 2000});
  spec.access[1] = 1;
  spec.access_default = 0;
  spec.build_full_mesh(45000);

  const core::SwarmSpec parsed = core::SwarmSpec::parse_text(spec.serialize());
  ASSERT_EQ(parsed.link_profiles.size(), 2u);
  EXPECT_EQ(parsed.link_profiles[1].name, "dsl");
  EXPECT_DOUBLE_EQ(parsed.link_profiles[1].loss, 0.02);
  EXPECT_EQ(parsed.link_profiles[1].delay_us, 8000u);
  EXPECT_EQ(parsed.link_profiles[1].jitter_us, 2000u);
  ASSERT_NE(parsed.node_profile(1), nullptr);
  EXPECT_EQ(parsed.node_profile(1)->name, "dsl");
  ASSERT_NE(parsed.node_profile(0), nullptr);
  EXPECT_EQ(parsed.node_profile(0)->name, "fiber");  // via the default
  EXPECT_TRUE(parsed.shaped());

  // Without assignments the profiles are inert: byte exactness stays on.
  core::SwarmSpec inert;
  inert.nodes = 2;
  inert.link_profiles.push_back({"dsl", 0.02, 8000, 2000});
  EXPECT_FALSE(inert.shaped());
  EXPECT_EQ(inert.node_profile(0), nullptr);
}

TEST(SwarmSpecShaping, ParserRejectsBadProfilesAndAccess) {
  EXPECT_THROW(core::SwarmSpec::parse_text(
                   "nodes 2\nlink_profile p 1.5 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(core::SwarmSpec::parse_text(
                   "nodes 2\nlink_profile p 0.1 0 0\nlink_profile p 0.2 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(core::SwarmSpec::parse_text("nodes 2\naccess 0 ghost\n"),
               std::runtime_error);
  EXPECT_THROW(core::SwarmSpec::parse_text(
                   "nodes 2\nlink_profile p 0.1 0 0\naccess 7 p\n"),
               std::runtime_error);
  EXPECT_THROW(core::SwarmSpec::parse_text(
                   "nodes 2\nlink_profile p 0.1 0 0\naccess x p\n"),
               std::runtime_error);
}

TEST(SwarmSpecShaping, ParserRejectsHostileNumbersByLine) {
  // Each entry's last line is the bad one; the error must name it.
  const std::vector<std::string> hostile = {
      "nodes -1\n",                   // would wrap to 2^64 - 1
      "n -5\n",
      "symbols_per_tick -1\n",
      "n 100x\n",                     // garbage after the number
      "max_ticks abc\n",
      "tick_us 1e3\n",
      "mtu 18446744073709551616\n",   // 2^64: out of range
      "n 100 200\n",                  // trailing token
      "host 127.0.0.1 extra\n",
      "strategy recodebf random\n",
      "loss_rate 7\n",
      "loss_rate -0.5\n",
      "correlation 1.5\n",
      "link_profile p -0.1 0 0\n",
      "link_profile p 0.1 -5 0\n",
      "link_profile p 0.1 5 0 9\n",
      "stretch -3\n",                 // reached a UB cast in the world build
      "stretch 0.5\n",
      "request_overhead -1\n",
      "edge 0 1 70000 2\n",           // ports are 16-bit
      "edge 0 1 -1 2\n",
      "edge 0 1 1 2 3\n",
      "nodes 3\nnodes 3\n",           // a scalar key set twice
      "seed 1\nseed 1\n",
      "link_profile p 0.1 0 0\naccess 0 p extra\n",
  };
  for (const std::string& text : hostile) {
    const std::size_t bad_line =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    try {
      core::SwarmSpec::parse_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& error) {
      const std::string prefix =
          "SwarmSpec line " + std::to_string(bad_line) + ": ";
      EXPECT_EQ(std::string(error.what()).rfind(prefix, 0), 0u)
          << text << " -> " << error.what();
    }
  }
  // Each value fits, but a count derived from two of them would not.
  EXPECT_THROW(core::SwarmSpec::parse_text("n 120\nstretch 1e30\n"),
               std::runtime_error);
  EXPECT_THROW(core::SwarmSpec::parse_text("n 60\nrequest_overhead 1e300\n"),
               std::runtime_error);
}

TEST(SwarmSpecShaping, StrictParserRoundTripsSerialize) {
  core::SwarmSpec spec;
  spec.nodes = 5;
  spec.n = 333;
  spec.stretch = 1.25;
  spec.correlation = 0.4;
  spec.seed = 0xfedcba9876543210ULL;
  spec.strategy = overlay::Strategy::kRecodeMinwise;
  spec.request_overhead = 4.0;
  spec.loss_rate = 0.05;
  spec.max_handshake_retries = 8;
  spec.link_profiles.push_back({"dsl", 0.02, 8000, 2000});
  spec.access[3] = 0;
  spec.build_full_mesh(65000);  // the last ports reach 65039
  const std::string text = spec.serialize();
  const core::SwarmSpec parsed = core::SwarmSpec::parse_text(text);
  EXPECT_EQ(parsed.serialize(), text);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.strategy, spec.strategy);
  ASSERT_EQ(parsed.edges.size(), 20u);
  EXPECT_EQ(parsed.edges.back().receiver_port, 65039u);
}

TEST(SwarmSpecShaping, ShapedPredictionCompletesDeterministically) {
  core::SwarmSpec spec;
  spec.nodes = 3;
  spec.n = 60;
  spec.request_overhead = 4.0;
  spec.handshake_retry_ticks = 50;
  spec.max_ticks = 20000;
  spec.link_profiles.push_back({"lossy", 0.05, 3000, 1000});
  spec.access_default = 0;
  spec.build_full_mesh(0);  // ports unused by the predictor
  ASSERT_TRUE(spec.shaped());

  const core::SwarmPrediction first = core::predict_swarm(spec);
  const core::SwarmPrediction second = core::predict_swarm(spec);
  EXPECT_TRUE(first.all_completed);
  EXPECT_GT(first.ticks, 0u);
  // Deterministic per spec: the shaped band centers CI gates against must
  // not wobble between harness invocations.
  EXPECT_EQ(first.ticks, second.ticks);
  EXPECT_EQ(first.handshake_retries, second.handshake_retries);
  ASSERT_EQ(first.edges.size(), second.edges.size());
  for (std::size_t e = 0; e < first.edges.size(); ++e) {
    EXPECT_EQ(first.edges[e], second.edges[e]) << "edge " << e;
  }
  // And the shaping is real: a clean run of the same spec finishes faster.
  core::SwarmSpec clean = spec;
  clean.access_default.reset();
  EXPECT_FALSE(clean.shaped());
  const core::SwarmPrediction unshaped = core::predict_swarm(clean);
  EXPECT_TRUE(unshaped.all_completed);
  EXPECT_LT(unshaped.ticks, first.ticks);
  EXPECT_EQ(unshaped.handshake_retries, 0u);
}

}  // namespace
}  // namespace icd::wire
