// Tests for the message-driven protocol endpoints: full sessions over
// perfect pipes and lossy/reordering channels, transport fragmentation,
// and exact control-plane byte accounting.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/endpoint.hpp"
#include "core/origin.hpp"
#include "core/session.hpp"
#include "util/random.hpp"
#include "wire/transport.hpp"

namespace icd::core {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

struct Fixture {
  static constexpr std::size_t kBlocks = 250;
  static constexpr std::size_t kBlockSize = 24;

  Fixture()
      : content(random_content(kBlocks * kBlockSize - 5, 42)),
        origin(content, kBlockSize,
               codec::DegreeDistribution::robust_soliton(kBlocks), 777) {}

  Peer make_peer(const std::string& name) const {
    return Peer(name, origin.parameters(),
                codec::DegreeDistribution::robust_soliton(kBlocks));
  }

  std::vector<std::uint8_t> content;
  OriginServer origin;
};

/// Folds every data frame `transport` sends from now on into `hash`
/// (FNV-1a): which symbols a sender draws, and in what order, shows up
/// here even where the byte counts agree.
void fingerprint_data_frames(wire::Transport& transport, std::uint64_t& hash) {
  hash = 0xcbf29ce484222325ULL;
  transport.set_frame_observer(
      [&hash](const std::vector<std::uint8_t>& frame, bool is_control) {
        if (is_control) return;
        for (const std::uint8_t byte : frame) {
          hash ^= byte;
          hash *= 0x100000001b3ULL;
        }
      });
}

/// Drives a sender/receiver endpoint pair until the receiver decodes or
/// `max_rounds` pass; returns the rounds consumed.
std::size_t drive(SenderEndpoint& sender, ReceiverEndpoint& receiver,
                  std::size_t max_rounds) {
  receiver.start();
  std::size_t round = 0;
  for (; round < max_rounds && !receiver.complete(); ++round) {
    sender.tick();
    sender.send_symbol();
    receiver.tick();
  }
  return round;
}

// --- Transport fragmentation ----------------------------------------------

TEST(Transport, FragmentOverheadCoversWorstCaseEncoding) {
  // Transport::send slices oversized frames into chunks of
  // mtu - kFragmentOverhead bytes and relies on every resulting Fragment
  // frame fitting the MTU. Pin that invariant against the actual wire
  // encoding at worst-case header values, so growing the Fragment layout
  // without growing kFragmentOverhead fails here instead of silently
  // producing unsendable fragment trains.
  for (const std::size_t mtu :
       {wire::kFragmentOverhead + 1, std::size_t{64}, std::size_t{256},
        std::size_t{1024}, std::size_t{1500}, std::size_t{65536}}) {
    wire::Fragment fragment;
    fragment.sequence = std::numeric_limits<std::uint32_t>::max();
    fragment.index = std::numeric_limits<std::uint16_t>::max() - 1;
    fragment.total = std::numeric_limits<std::uint16_t>::max();
    fragment.data.assign(mtu - wire::kFragmentOverhead, 0xab);
    EXPECT_LE(wire::encode_frame(fragment).size(), mtu) << "mtu " << mtu;
  }
}

TEST(Transport, FragmentsOversizedFramesAndReassembles) {
  wire::Pipe pipe(/*mtu=*/128);
  std::size_t max_frame = 0;
  pipe.a().set_frame_observer(
      [&](const std::vector<std::uint8_t>& frame, bool) {
        max_frame = std::max(max_frame, frame.size());
      });
  sketch::MinwiseSketch sketch(1 << 20, 128);  // ~1 KB serialized
  for (std::uint64_t i = 0; i < 500; ++i) sketch.update(i * 31);
  ASSERT_TRUE(pipe.a().send(wire::SketchMessage{sketch}));

  const auto& stats = pipe.a().stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_GT(stats.frames_sent, 8u);  // ~1 KB over a 128-byte MTU
  EXPECT_LE(max_frame, 128u);

  const auto received = pipe.b().receive_frame();
  ASSERT_TRUE(received.has_value());
  const auto* message = std::get_if<wire::Message>(&*received);
  ASSERT_NE(message, nullptr);
  ASSERT_TRUE(std::holds_alternative<wire::SketchMessage>(*message));
  EXPECT_EQ(std::get<wire::SketchMessage>(*message).sketch.minima(),
            sketch.minima());
  EXPECT_FALSE(pipe.b().receive_frame().has_value());
  EXPECT_EQ(pipe.b().stats().messages_received, 1u);
}

TEST(Transport, FragmentsSurviveReordering) {
  wire::ChannelConfig config;
  config.mtu = 100;
  config.reorder_rate = 0.5;
  config.seed = 11;
  wire::ChannelLink link(config);

  sketch::MinwiseSketch sketch(1 << 20, 64);
  for (std::uint64_t i = 0; i < 100; ++i) sketch.update(i * 13);
  ASSERT_TRUE(link.a().send(wire::SketchMessage{sketch}));

  std::optional<wire::DecodedFrame> received;
  for (int i = 0; i < 100 && !received; ++i) {
    received = link.b().receive_frame();
  }
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::get<wire::SketchMessage>(std::get<wire::Message>(*received))
                .sketch.minima(),
            sketch.minima());
}

TEST(Transport, SendFailsWhenMtuCannotFitAFragment) {
  wire::Pipe pipe(/*mtu=*/8);
  sketch::MinwiseSketch sketch(1 << 20, 64);
  EXPECT_FALSE(pipe.a().send(wire::SketchMessage{sketch}));
  EXPECT_EQ(pipe.a().stats().frames_sent, 0u);
}

TEST(Transport, LostFragmentLosesMessageWithoutCrash) {
  wire::ChannelConfig config;
  config.mtu = 100;
  config.loss_rate = 0.3;
  config.seed = 3;
  wire::ChannelLink link(config);

  sketch::MinwiseSketch sketch(1 << 20, 64);
  for (std::uint64_t i = 0; i < 200; ++i) sketch.update(i * 7);
  // A ~7-fragment message survives a 30% frame loss whole with p ~ 0.08,
  // so repeated sends deliver an intact copy while most attempts are
  // (harmlessly) shredded.
  bool delivered = false;
  for (int attempt = 0; attempt < 500 && !delivered; ++attempt) {
    ASSERT_TRUE(link.a().send(wire::SketchMessage{sketch}));
    while (auto frame = link.b().receive_frame()) {
      const auto* message = std::get_if<wire::Message>(&*frame);
      ASSERT_NE(message, nullptr);
      if (std::holds_alternative<wire::SketchMessage>(*message)) {
        EXPECT_EQ(std::get<wire::SketchMessage>(*message).sketch.minima(),
                  sketch.minima());
        delivered = true;
      }
    }
  }
  EXPECT_TRUE(delivered);
}

// --- Endpoint sessions over lossy links -----------------------------------

class LossyStrategies : public ::testing::TestWithParam<overlay::Strategy> {};

TEST_P(LossyStrategies, CompletesUnderLossAndReordering) {
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 280; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver_peer.receive_encoded(f.origin.next());

  wire::ChannelConfig link_config;
  link_config.loss_rate = 0.08;  // >= 5% loss, both directions
  link_config.reorder_rate = 0.1;
  link_config.mtu = 1024;
  link_config.seed = 0xfeed + static_cast<std::uint64_t>(GetParam());
  wire::ChannelLink link(link_config);

  SessionOptions options;
  options.strategy = GetParam();
  options.requested_symbols = 260;
  SenderEndpoint sender(sender_peer, options, link.a());
  ReceiverEndpoint receiver(receiver_peer, options, link.b());

  drive(sender, receiver, /*max_rounds=*/8000);
  ASSERT_TRUE(receiver.complete()) << strategy_name(GetParam());
  EXPECT_EQ(receiver_peer.content(f.content.size()), f.content);
  // Loss means some sent symbols never arrived.
  EXPECT_GE(sender.symbols_sent(), receiver.symbols_received());
  EXPECT_GT(link.a_to_b().dropped() + link.b_to_a().dropped(), 0u);
}

TEST_P(LossyStrategies, CompletesUnderHeavyLoss) {
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 300; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 140; ++i) receiver_peer.receive_encoded(f.origin.next());

  wire::ChannelConfig link_config;
  link_config.loss_rate = 0.2;  // the top of the 5-20% band
  link_config.reorder_rate = 0.2;
  link_config.mtu = 1024;
  link_config.seed = 0xbeef + static_cast<std::uint64_t>(GetParam());
  wire::ChannelLink link(link_config);

  SessionOptions options;
  options.strategy = GetParam();
  options.requested_symbols = 280;
  options.handshake_retry_ticks = 4;
  SenderEndpoint sender(sender_peer, options, link.a());
  ReceiverEndpoint receiver(receiver_peer, options, link.b());

  drive(sender, receiver, /*max_rounds=*/12000);
  ASSERT_TRUE(receiver.complete()) << strategy_name(GetParam());
  EXPECT_EQ(receiver_peer.content(f.content.size()), f.content);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, LossyStrategies,
                         ::testing::ValuesIn(overlay::kAllStrategies));

TEST(Endpoint, EmptySenderServesNothingInsteadOfThrowing) {
  Fixture f;
  Peer sender_peer = f.make_peer("empty-sender");
  Peer receiver_peer = f.make_peer("receiver");

  wire::Pipe pipe(1024);
  SessionOptions options;
  SenderEndpoint sender(sender_peer, options, pipe.a());
  ReceiverEndpoint receiver(receiver_peer, options, pipe.b());

  receiver.start();
  for (int i = 0; i < 8; ++i) {
    sender.tick();
    EXPECT_FALSE(sender.send_symbol());
    receiver.tick();
  }
  EXPECT_EQ(sender.symbols_sent(), 0u);
  EXPECT_EQ(receiver.symbols_received(), 0u);
}

TEST(Endpoint, HandshakeRetriesThroughHeavyControlLoss) {
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 260; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 100; ++i) receiver_peer.receive_encoded(f.origin.next());

  wire::ChannelConfig link_config;
  link_config.loss_rate = 0.5;
  link_config.mtu = 1024;
  link_config.seed = 21;
  wire::ChannelLink link(link_config);

  SessionOptions options;
  options.strategy = overlay::Strategy::kRecodeBloom;
  options.requested_symbols = 250;
  options.handshake_retry_ticks = 3;
  SenderEndpoint sender(sender_peer, options, link.a());
  ReceiverEndpoint receiver(receiver_peer, options, link.b());

  receiver.start();
  std::size_t rounds = 0;
  while (!receiver.transfer_started() && rounds < 2000) {
    sender.tick();
    receiver.tick();
    ++rounds;
  }
  ASSERT_TRUE(receiver.transfer_started());
  // At 50% frame loss the 5-frame bundle essentially never lands whole on
  // the first try; the retry path must have fired.
  EXPECT_GT(receiver.handshake_retries(), 0u);
}

// --- Exact byte accounting -------------------------------------------------

TEST(Endpoint, ControlBytesEqualSumOfTransmittedControlFrames) {
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 220; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver_peer.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = overlay::Strategy::kRecodeBloom;
  options.requested_symbols = 200;
  InformedSession session(sender_peer, receiver_peer, options);

  // Independently audit every frame the transports emit.
  std::size_t control_bytes = 0, control_frames = 0, data_bytes = 0;
  const auto observe = [&](const std::vector<std::uint8_t>& frame,
                           bool is_control) {
    if (is_control) {
      control_bytes += frame.size();
      ++control_frames;
    } else {
      data_bytes += frame.size();
    }
  };
  session.sender_transport().set_frame_observer(observe);
  session.receiver_transport().set_frame_observer(observe);

  session.handshake();
  session.run(/*target_symbols=*/500, /*max_transmissions=*/4000);
  ASSERT_TRUE(receiver_peer.has_content());

  const auto& stats = session.stats();
  EXPECT_EQ(stats.control_bytes, control_bytes);
  EXPECT_EQ(stats.control_packets, control_frames);
  EXPECT_GT(data_bytes, 0u);
  const auto& tx = session.sender_transport().stats();
  const auto& rx = session.receiver_transport().stats();
  EXPECT_EQ(data_bytes, tx.data_bytes_sent + rx.data_bytes_sent);
}

TEST(Endpoint, ArtSummaryPacketizesOverTheSessionPipe) {
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 220; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver_peer.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = overlay::Strategy::kRecodeBloom;
  options.summary = SummaryKind::kArt;
  options.requested_symbols = 200;
  InformedSession session(sender_peer, receiver_peer, options);

  std::size_t max_frame = 0;
  session.receiver_transport().set_frame_observer(
      [&](const std::vector<std::uint8_t>& frame, bool) {
        max_frame = std::max(max_frame, frame.size());
      });
  std::uint64_t data_hash = 0;
  fingerprint_data_frames(session.sender_transport(), data_hash);
  session.handshake();
  // Every frame — including the multi-KB ART summary — fit the 1 KB MTU.
  EXPECT_GT(max_frame, 0u);
  EXPECT_LE(max_frame, kSessionPipeMtu);
  session.run(500, 4000);
  EXPECT_TRUE(receiver_peer.has_content());
  EXPECT_EQ(receiver_peer.content(f.content.size()), f.content);

  // The session's exact bytes. No engine trajectory uses an ART summary,
  // so these pin the ART branch of the sender's handshake. The ART
  // difference holds 186 of the sender's 220 ids, fewer than the 200
  // requested, so the domain is the whole difference, in the order its
  // ids map to slots.
  const auto& stats = session.stats();
  EXPECT_EQ(stats.control_bytes, 2405u);
  EXPECT_EQ(stats.control_packets, 8u);
  EXPECT_EQ(stats.symbols_sent, 333u);
  EXPECT_EQ(stats.symbols_useful, 2u);
  EXPECT_EQ(stats.new_encoded_symbols, 186u);
  EXPECT_EQ(session.sender_transport().stats().data_bytes_sent, 22372u);
  EXPECT_EQ(session.receiver_transport().stats().data_bytes_sent, 0u);
  EXPECT_EQ(data_hash, 0x5d07dc52f1be1e5bULL);
}

TEST(Endpoint, ArtSummaryRestrictedDomainIsPinned) {
  // The same session asking for 150 symbols: the Recode/BF restriction
  // draws 150 of the 186 ids in the ART difference (util::shuffle) and
  // orders them by id. Another draw changes which symbols arrive (and the
  // blocks they decode); another order changes which ids each recoded
  // symbol names. Both change the data frames' bytes.
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 220; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver_peer.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = overlay::Strategy::kRecodeBloom;
  options.summary = SummaryKind::kArt;
  options.requested_symbols = 150;
  InformedSession session(sender_peer, receiver_peer, options);
  std::uint64_t data_hash = 0;
  fingerprint_data_frames(session.sender_transport(), data_hash);
  session.handshake();
  session.run(/*target_symbols=*/300, /*max_transmissions=*/4000);

  EXPECT_EQ(receiver_peer.symbol_count(), 300u);
  EXPECT_EQ(receiver_peer.blocks_recovered(), 43u);
  const auto& stats = session.stats();
  EXPECT_EQ(stats.control_bytes, 2405u);
  EXPECT_EQ(stats.control_packets, 8u);
  EXPECT_EQ(stats.symbols_sent, 286u);
  EXPECT_EQ(stats.symbols_useful, 1u);
  EXPECT_EQ(stats.new_encoded_symbols, 150u);
  EXPECT_EQ(session.sender_transport().stats().data_bytes_sent, 19809u);
  EXPECT_EQ(session.receiver_transport().stats().data_bytes_sent, 0u);
  EXPECT_EQ(data_hash, 0x1bfb63570843a055ULL);
}

TEST(Endpoint, LossyLinkAccountingMatchesChannelCounters) {
  Fixture f;
  Peer sender_peer = f.make_peer("sender");
  Peer receiver_peer = f.make_peer("receiver");
  for (int i = 0; i < 280; ++i) sender_peer.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver_peer.receive_encoded(f.origin.next());

  wire::ChannelConfig link_config;
  link_config.loss_rate = 0.1;
  link_config.mtu = 1024;
  link_config.seed = 5;
  wire::ChannelLink link(link_config);

  SessionOptions options;
  options.strategy = overlay::Strategy::kRandomBloom;
  options.requested_symbols = 260;
  SenderEndpoint sender(sender_peer, options, link.a());
  ReceiverEndpoint receiver(receiver_peer, options, link.b());
  drive(sender, receiver, 8000);
  ASSERT_TRUE(receiver.complete());

  // Transport accounting matches the channels byte-for-byte: everything
  // the transports handed down crossed (or was eaten by) the wire.
  const auto& tx = link.a().stats();
  const auto& rx = link.b().stats();
  EXPECT_EQ(tx.bytes_sent + rx.bytes_sent,
            link.a_to_b().sent_bytes() + link.b_to_a().sent_bytes());
  EXPECT_EQ(tx.control_bytes_sent + tx.data_bytes_sent, tx.bytes_sent);
  EXPECT_EQ(tx.control_frames_sent + tx.data_frames_sent, tx.frames_sent);
}

}  // namespace
}  // namespace icd::core
