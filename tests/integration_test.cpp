// End-to-end integration: the complete informed-delivery protocol running
// over wire frames through lossy channels — the closest this repository
// gets to the paper's prototype deployment.
//
// Receiver and sender are full-fidelity Peers. All control and data
// traffic is serialized into wire frames (control Messages, recoded symbol
// views) and carried by wire::LossyChannel; the sender side drives itself
// purely from what arrives on its control channel (Hello, sketch, Bloom
// summary, request).
#include <gtest/gtest.h>

#include <vector>

#include "core/origin.hpp"
#include "core/peer.hpp"
#include "reconcile/set_difference.hpp"
#include "util/random.hpp"
#include "wire/channel.hpp"
#include "wire/message.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

struct ProtocolWorld {
  static constexpr std::size_t kBlocks = 300;
  static constexpr std::size_t kBlockSize = 16;

  ProtocolWorld()
      : content(random_content(kBlocks * kBlockSize, 99)),
        origin(content, kBlockSize,
               codec::DegreeDistribution::robust_soliton(kBlocks), 4242),
        sender("sender", origin.parameters(),
               codec::DegreeDistribution::robust_soliton(kBlocks)),
        receiver("receiver", origin.parameters(),
                 codec::DegreeDistribution::robust_soliton(kBlocks)) {}

  std::vector<std::uint8_t> content;
  core::OriginServer origin;
  core::Peer sender;
  core::Peer receiver;
};

/// Runs the protocol with the given data-channel loss rate; returns the
/// number of data frames sent. The control channel is lossless (in a
/// deployment it would be TCP; data symbols ride the lossy path).
std::size_t run_protocol(ProtocolWorld& world, double data_loss) {
  // Working sets: sender 240 symbols, receiver a different 180 — together
  // enough to decode (need ~321).
  for (int i = 0; i < 240; ++i) world.sender.receive_encoded(world.origin.next());
  for (int i = 0; i < 180; ++i) {
    world.receiver.receive_encoded(world.origin.next());
  }

  wire::LossyChannel control(wire::ChannelConfig{});
  wire::ChannelConfig data_config;
  data_config.loss_rate = data_loss;
  data_config.seed = 777;
  wire::LossyChannel data(data_config);

  // --- Receiver side: handshake frames ---------------------------------
  control.send_message(wire::Hello{
      world.receiver.parameters().block_count,
      world.receiver.parameters().session_seed,
      world.receiver.symbol_count()});
  control.send_message(wire::SketchMessage{world.receiver.sketch()});
  control.send_message(
      wire::BloomSummaryMessage{world.receiver.bloom_summary()});
  control.send_message(wire::Request{200});

  // --- Sender side: consume control, build its serving state ------------
  const auto hello = std::get<wire::Hello>(control.receive_message());
  EXPECT_EQ(hello.block_count, world.sender.parameters().block_count);
  const auto peer_sketch =
      std::get<wire::SketchMessage>(control.receive_message()).sketch;
  const auto peer_bloom =
      std::get<wire::BloomSummaryMessage>(control.receive_message()).filter;
  const auto request = std::get<wire::Request>(control.receive_message());
  EXPECT_TRUE(control.pending() == false);

  const double resemblance =
      sketch::MinwiseSketch::resemblance(world.sender.sketch(), peer_sketch);
  EXPECT_GE(resemblance, 0.0);

  // Filter the sender's working set by the receiver's Bloom summary,
  // restrict the recoding domain to the requested size, and resolve it to
  // the sender's slots once.
  auto domain =
      reconcile::bloom_set_difference(world.sender.symbol_ids(), peer_bloom);
  util::Xoshiro256 rng(31337);
  if (domain.size() > request.symbols_desired) {
    util::shuffle(domain, rng);
    domain.resize(request.symbols_desired);
  }
  std::vector<std::uint32_t> slots;
  for (const std::uint64_t id : domain) {
    slots.push_back(world.sender.symbol_slot(id));
  }
  const auto dist =
      codec::DegreeDistribution::robust_soliton(
          std::max<std::size_t>(domain.size(), 2))
          .truncated(codec::kDefaultRecodeDegreeLimit);

  // --- Data plane: recoded symbols as frames through the lossy channel --
  std::size_t frames_sent = 0;
  const std::size_t frame_cap = 6000;
  codec::RecodedSymbol symbol;
  std::vector<std::uint64_t> constituents;
  while (!world.receiver.has_content() && frames_sent < frame_cap) {
    world.sender.recode_slots_into(symbol, slots, dist.sample(rng), rng);
    EXPECT_TRUE(data.send(wire::encode_frame(codec::RecodedSymbolView(symbol))));
    ++frames_sent;
    while (data.pending()) {
      // An empty receive is the channel's clock releasing the frame in
      // flight; the next receive delivers it.
      const auto frame = data.receive();
      if (frame.empty()) continue;
      world.receiver.receive_recoded(std::get<codec::RecodedSymbolView>(
          wire::decode_frame(frame, constituents)));
    }
  }
  return frames_sent;
}

TEST(ProtocolIntegration, LosslessTransferDecodes) {
  ProtocolWorld world;
  const auto frames = run_protocol(world, 0.0);
  ASSERT_TRUE(world.receiver.has_content());
  EXPECT_EQ(world.receiver.content(world.content.size()), world.content);
  EXPECT_LT(frames, 1000u);
}

TEST(ProtocolIntegration, SurvivesHeavyDataLoss) {
  ProtocolWorld world;
  const auto frames = run_protocol(world, 0.35);
  ASSERT_TRUE(world.receiver.has_content());
  EXPECT_EQ(world.receiver.content(world.content.size()), world.content);
  // Roughly 1/(1-loss) more frames than the lossless run; sanity-bound it.
  EXPECT_LT(frames, 3000u);
}

TEST(ProtocolIntegration, SymbolFramesFitTheMtu) {
  // Every data frame (recoded symbol header + payload) must fit a 1500-byte
  // MTU at the paper's degree limit: 50 * 8-byte ids + payload.
  ProtocolWorld world;
  for (int i = 0; i < 100; ++i) world.sender.receive_encoded(world.origin.next());
  util::Xoshiro256 rng(1);
  codec::RecodedSymbol symbol;
  for (int i = 0; i < 100; ++i) {
    world.sender.recode_into(symbol, 50, rng);
    ASSERT_EQ(symbol.degree(), 50u);
    const auto frame = wire::encode_frame(codec::RecodedSymbolView(symbol));
    EXPECT_LE(frame.size(), 1500u);
  }
}

TEST(ProtocolIntegration, ControlHandshakeFitsFourPackets) {
  // Sketch (1 KB) + Bloom summary (~8 bits/elt) + hello + request must stay
  // within the handful-of-packets budget the paper advertises.
  ProtocolWorld world;
  for (int i = 0; i < 180; ++i) {
    world.receiver.receive_encoded(world.origin.next());
  }
  std::vector<wire::Message> handshake;
  handshake.emplace_back(wire::Hello{world.receiver.parameters().block_count,
                                     world.receiver.parameters().session_seed,
                                     world.receiver.symbol_count()});
  handshake.emplace_back(wire::SketchMessage{world.receiver.sketch()});
  handshake.emplace_back(
      wire::BloomSummaryMessage{world.receiver.bloom_summary()});
  handshake.emplace_back(wire::Request{200});
  std::size_t bytes = 0;
  for (const auto& message : handshake) {
    const auto frame = wire::encode_frame(message);
    bytes += frame.size();
    // And each frame parses back intact.
    EXPECT_EQ(wire::message_type(wire::decode_control_frame(frame)),
              wire::message_type(message));
  }
  EXPECT_LE(bytes, 4 * 1024u);
}

}  // namespace
}  // namespace icd
