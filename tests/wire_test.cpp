// Tests for icd::wire: framed message serialization, the simulated lossy
// channel, and the one-frame-per-datagram rule of the transport.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/buffer.hpp"
#include "wire/channel.hpp"
#include "wire/message.hpp"
#include "wire/transport.hpp"

namespace icd::wire {
namespace {

TEST(WireMessage, HelloRoundTrip) {
  const Hello hello{1234, 0xdeadbeefULL, 567};
  const auto frame = encode_frame(hello);
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(std::holds_alternative<Hello>(decoded));
  EXPECT_EQ(std::get<Hello>(decoded), hello);
}

TEST(WireMessage, RequestRoundTrip) {
  const Request request{987654};
  const auto decoded = decode_frame(encode_frame(request));
  ASSERT_TRUE(std::holds_alternative<Request>(decoded));
  EXPECT_EQ(std::get<Request>(decoded), request);
}

TEST(WireMessage, RequestUpdateRoundTrip) {
  for (const std::uint64_t remaining : {std::uint64_t{0}, std::uint64_t{17},
                                        std::uint64_t{1} << 40}) {
    const RequestUpdate update{remaining};
    const auto decoded = decode_frame(encode_frame(update));
    ASSERT_TRUE(std::holds_alternative<RequestUpdate>(decoded));
    EXPECT_EQ(std::get<RequestUpdate>(decoded), update);
  }
}

TEST(WireMessage, EncodedSymbolRoundTrip) {
  EncodedSymbolMessage message;
  message.symbol.id = 42;
  message.symbol.payload = {1, 2, 3, 4, 5};
  const auto decoded = decode_frame(encode_frame(message));
  ASSERT_TRUE(std::holds_alternative<EncodedSymbolMessage>(decoded));
  EXPECT_EQ(std::get<EncodedSymbolMessage>(decoded), message);
}

TEST(WireMessage, RecodedSymbolRoundTrip) {
  RecodedSymbolMessage message;
  message.symbol.constituents = {10, 20, 30};
  message.symbol.payload = {9, 8};
  const auto decoded = decode_frame(encode_frame(message));
  ASSERT_TRUE(std::holds_alternative<RecodedSymbolMessage>(decoded));
  EXPECT_EQ(std::get<RecodedSymbolMessage>(decoded), message);
}

TEST(WireMessage, SketchRoundTrip) {
  sketch::MinwiseSketch sketch(1 << 20, 32);
  sketch.update_all({1, 2, 3, 99});
  const auto decoded = decode_frame(encode_frame(SketchMessage{sketch}));
  ASSERT_TRUE(std::holds_alternative<SketchMessage>(decoded));
  EXPECT_EQ(std::get<SketchMessage>(decoded).sketch.minima(),
            sketch.minima());
}

// The two round trips above would pass under any self-consistent layout.
// These pin the literal bytes: every integer little-endian, a u64 array
// (sketch minima, recoded constituent ids) as consecutive u64s.
TEST(WireMessage, SketchFrameBytesArePinned) {
  sketch::MinwiseSketch sketch(1 << 20, 3);
  sketch.update_all({1, 2, 3, 99});
  const std::vector<std::uint8_t> expected{
      0xd0, 0x1c, 0x01, 0x02, 0x2a,                    // header, length 42
      0x29,                                            // blob length 41
      0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,  // universe 2^20
      0xe5, 0xfe, 0x0f, 0x1c, 0xa1, 0xc4, 0xe7, 0x51,  // kSharedSeed
      0x03,                                            // 3 minima
      0x24, 0x73, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 29476
      0x74, 0xd1, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,  // 119156
      0xfb, 0xeb, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,  // 125947
  };
  EXPECT_EQ(encode_frame(SketchMessage{sketch}), expected);
  EXPECT_EQ(std::get<SketchMessage>(decode_frame(expected)).sketch.minima(),
            sketch.minima());
}

TEST(WireMessage, RecodedSymbolFrameBytesArePinned) {
  RecodedSymbolMessage message;
  message.symbol.constituents = {0x0102030405060708ULL, 42,
                                 0xfedcba9876543210ULL};
  message.symbol.payload = {9, 8, 7};
  const std::vector<std::uint8_t> expected{
      0xd0, 0x1c, 0x01, 0x07, 0x1d,                    // header, length 29
      0x03,                                            // degree 3
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,
      0x03, 0x09, 0x08, 0x07,                          // 3 payload bytes
  };
  EXPECT_EQ(encode_frame(message), expected);
  const auto view = codec::RecodedSymbolView(message.symbol);
  util::ByteWriter in_place;
  encode_frame_into(in_place, view);
  EXPECT_EQ(in_place.bytes(), expected);
  EXPECT_EQ(std::get<RecodedSymbolMessage>(decode_frame(expected)), message);
  std::vector<std::uint64_t> scratch;
  const auto decoded = decode_symbol_frame(expected, scratch);
  ASSERT_TRUE(decoded.has_value() && decoded->recoded.has_value());
  EXPECT_EQ(scratch, message.symbol.constituents);
}

TEST(ByteReader, U64ArrayReadsAreBoundsChecked) {
  util::ByteWriter out;
  const std::vector<std::uint64_t> values{1, 0x8000000000000001ULL, 3};
  out.u64s(values);
  std::vector<std::uint64_t> read(3);
  util::ByteReader reader(out.bytes());
  reader.u64s(read);
  EXPECT_EQ(read, values);
  EXPECT_TRUE(reader.done());
  // One byte short of three u64s.
  const std::vector<std::uint8_t> bytes(out.bytes().begin(),
                                        out.bytes().end() - 1);
  util::ByteReader short_reader(bytes);
  EXPECT_THROW(short_reader.u64s(read), std::out_of_range);
  EXPECT_EQ(short_reader.remaining(), bytes.size());
}

TEST(WireMessage, BloomSummaryRoundTrip) {
  auto filter = filter::BloomFilter::with_bits_per_element(100, 8.0);
  for (std::uint64_t i = 0; i < 100; ++i) filter.insert(i * 7);
  const auto decoded =
      decode_frame(encode_frame(BloomSummaryMessage{filter}));
  ASSERT_TRUE(std::holds_alternative<BloomSummaryMessage>(decoded));
  const auto& restored = std::get<BloomSummaryMessage>(decoded).filter;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(restored.contains(i * 7));
  }
}

TEST(WireMessage, ArtSummaryRoundTrip) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 300; ++i) keys.push_back(i * 1337);
  const art::ReconciliationTree tree(keys);
  const auto summary = art::ArtSummary::build(tree, 4.0, 4.0);
  const auto decoded = decode_frame(encode_frame(ArtSummaryMessage{summary}));
  ASSERT_TRUE(std::holds_alternative<ArtSummaryMessage>(decoded));
  EXPECT_EQ(std::get<ArtSummaryMessage>(decoded).summary.total_bits(),
            summary.total_bits());
}

TEST(WireMessage, TypeTagsAreStable) {
  EXPECT_EQ(message_type(Hello{}), MessageType::kHello);
  EXPECT_EQ(message_type(Request{}), MessageType::kRequest);
  EXPECT_EQ(message_type(EncodedSymbolMessage{}),
            MessageType::kEncodedSymbol);
  EXPECT_EQ(message_type(RecodedSymbolMessage{}),
            MessageType::kRecodedSymbol);
}

TEST(WireMessage, RejectsMalformedFrames) {
  auto frame = encode_frame(Hello{1, 2, 3});
  // Bad magic.
  auto bad = frame;
  bad[0] ^= 0xff;
  EXPECT_THROW(decode_frame(bad), std::invalid_argument);
  // Bad version.
  bad = frame;
  bad[2] = 99;
  EXPECT_THROW(decode_frame(bad), std::invalid_argument);
  // Unknown type.
  bad = frame;
  bad[3] = 200;
  EXPECT_THROW(decode_frame(bad), std::invalid_argument);
  // Truncation.
  bad = frame;
  bad.pop_back();
  EXPECT_THROW(decode_frame(bad), std::invalid_argument);
  // Trailing garbage.
  bad = frame;
  bad.push_back(0);
  EXPECT_THROW(decode_frame(bad), std::invalid_argument);
}

TEST(LossyChannel, DeliversInOrderWithoutLoss) {
  LossyChannel channel(ChannelConfig{});
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.send_message(Request{i}));
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.pending());
    EXPECT_EQ(std::get<Request>(channel.receive_message()).symbols_desired,
              i);
  }
  EXPECT_FALSE(channel.pending());
  EXPECT_EQ(channel.dropped(), 0u);
}

TEST(LossyChannel, DropsAtConfiguredRate) {
  ChannelConfig config;
  config.loss_rate = 0.3;
  config.seed = 7;
  LossyChannel channel(config);
  constexpr std::size_t kFrames = 10000;
  for (std::size_t i = 0; i < kFrames; ++i) {
    channel.send_message(Request{i});
  }
  EXPECT_NEAR(static_cast<double>(channel.dropped()) / kFrames, 0.3, 0.03);
  std::size_t delivered = 0;
  while (channel.pending()) {
    // An empty receive releases the in-flight frame (one-hop residency);
    // only non-empty results are deliveries.
    if (!channel.receive().empty()) ++delivered;
  }
  EXPECT_EQ(delivered + channel.dropped(), kFrames);
}

TEST(LossyChannel, RejectsOversizedFrames) {
  ChannelConfig config;
  config.mtu = 16;
  LossyChannel channel(config);
  EXPECT_FALSE(channel.send(std::vector<std::uint8_t>(17, 0)));
  EXPECT_TRUE(channel.send(std::vector<std::uint8_t>(16, 0)));
  EXPECT_EQ(channel.oversized(), 1u);
}

TEST(LossyChannel, ReordersButLosesNothing) {
  ChannelConfig config;
  config.reorder_rate = 0.5;
  config.seed = 9;
  LossyChannel channel(config);
  constexpr std::uint64_t kFrames = 1000;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    channel.send_message(Request{i});
  }
  std::vector<bool> seen(kFrames, false);
  std::size_t out_of_order = 0;
  std::uint64_t previous = 0;
  bool first = true;
  while (channel.pending()) {
    const auto v =
        std::get<Request>(channel.receive_message()).symbols_desired;
    seen[v] = true;
    if (!first && v < previous) ++out_of_order;
    previous = v;
    first = false;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
  EXPECT_GT(out_of_order, 0u);
}

TEST(LossyChannel, ReceiveOnEmptyIsEmptyAndMessageThrows) {
  LossyChannel channel(ChannelConfig{});
  EXPECT_TRUE(channel.receive().empty());
  EXPECT_THROW(channel.receive_message(), std::logic_error);
}

TEST(ChannelTransport, DatagramHoldingTwoFramesIsOneMalformedFrame) {
  // A datagram carries exactly one frame. Two valid frames back to back
  // (a control pair, and a symbol followed by a control frame) are
  // rejected whole: each datagram counts once in malformed_frames and
  // delivers nothing, and the link keeps working afterwards.
  LossyChannel inbound(ChannelConfig{});
  LossyChannel outbound(ChannelConfig{});
  ChannelTransport receiver(outbound, inbound);
  EncodedSymbolMessage symbol;
  symbol.symbol.id = 7;
  symbol.symbol.payload = {0xaa, 0xbb};
  const std::vector<std::pair<Message, Message>> pairs = {
      {Hello{10, 20, 30}, Request{5}}, {symbol, Request{6}}};
  for (const auto& [first, second] : pairs) {
    auto datagram = encode_frame(first);
    const auto tail = encode_frame(second);
    datagram.insert(datagram.end(), tail.begin(), tail.end());
    ASSERT_TRUE(inbound.send(std::move(datagram)));
  }
  ASSERT_TRUE(inbound.send_message(Request{7}));

  // The event clock holds the newest frame in flight until an empty
  // receive releases it, so drain over a few calls.
  std::vector<Message> delivered;
  for (int call = 0; call < 4; ++call) {
    while (auto message = receiver.receive()) {
      delivered.push_back(std::move(*message));
    }
  }
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(std::get<Request>(delivered[0]), Request{7});
  EXPECT_EQ(receiver.stats().malformed_frames, 2u);
  EXPECT_EQ(receiver.stats().frames_received, 3u);
  EXPECT_EQ(receiver.stats().messages_received, 1u);
}

// --- Property-style robustness: malformed inputs must throw, never UB ----

std::vector<Message> sample_messages() {
  std::vector<Message> messages;
  messages.emplace_back(Hello{1234, 0xdeadbeefULL, 567});
  messages.emplace_back(Request{987654});
  EncodedSymbolMessage encoded;
  encoded.symbol.id = 42;
  encoded.symbol.payload = {1, 2, 3, 4, 5, 6, 7};
  messages.emplace_back(encoded);
  RecodedSymbolMessage recoded;
  recoded.symbol.constituents = {10, 20, 30, 40};
  recoded.symbol.payload = {9, 8, 7};
  messages.emplace_back(recoded);
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
  messages.emplace_back(Fragment{7, 0, 2, {1, 2, 3}});
  messages.emplace_back(RequestUpdate{12});
  return messages;
}

TEST(WireProperty, HugeRecodedDegreeIsRejectedWithoutAllocating) {
  // A corrupt RecodedSymbol frame can claim any degree in its varint; the
  // decoder must reject it like a truncation instead of reserving a
  // multi-gigabyte constituent vector first.
  for (const std::uint64_t degree :
       {std::uint64_t{1} << 61, std::uint64_t{1} << 35,
        std::uint64_t{1000}}) {
    util::ByteWriter payload;
    payload.varint(degree);  // claims far more constituents than follow
    util::ByteWriter frame;
    frame.u16(kMagic);
    frame.u8(kVersion);
    frame.u8(static_cast<std::uint8_t>(MessageType::kRecodedSymbol));
    frame.varint(payload.bytes().size());
    frame.raw(payload.bytes());
    EXPECT_THROW(decode_frame(frame.bytes()), std::invalid_argument)
        << "degree " << degree;
  }
}

TEST(WireProperty, HugeSummaryCountsAreRejectedWithoutAllocating) {
  // Same class of corruption as the recoded-degree case, for the
  // size-prefixed summary deserializers: claimed element counts far
  // beyond the payload must be rejected, not allocated.
  const auto frame_of = [](MessageType type,
                           const std::vector<std::uint8_t>& blob) {
    util::ByteWriter payload;
    payload.varint(blob.size());
    payload.raw(blob);
    util::ByteWriter frame;
    frame.u16(kMagic);
    frame.u8(kVersion);
    frame.u8(static_cast<std::uint8_t>(type));
    frame.varint(payload.bytes().size());
    frame.raw(payload.bytes());
    return frame.bytes();
  };

  util::ByteWriter sketch_blob;  // universe, seed, then an absurd count
  sketch_blob.u64(1ull << 20);
  sketch_blob.u64(42);
  sketch_blob.varint(std::uint64_t{1} << 40);
  EXPECT_THROW(decode_frame(frame_of(MessageType::kSketch,
                                     sketch_blob.bytes())),
               std::invalid_argument);

  util::ByteWriter bloom_blob;  // an absurd bit count, then the rest
  bloom_blob.varint(std::uint64_t{1} << 40);
  bloom_blob.varint(8);
  bloom_blob.u64(42);
  bloom_blob.varint(100);
  EXPECT_THROW(decode_frame(frame_of(MessageType::kBloomSummary,
                                     bloom_blob.bytes())),
               std::invalid_argument);

  // A hash count beyond min(bits, 256): with every bit set, each
  // sender-side contains() would loop that many times per query.
  const std::pair<std::uint64_t, std::uint64_t> geometries[] = {
      {64, 65}, {4096, 257}, {4096, std::uint64_t{1} << 40}};
  for (const auto& [bits, hashes] : geometries) {
    util::ByteWriter blob;
    blob.varint(bits);
    blob.varint(hashes);
    blob.u64(42);
    blob.varint(100);
    for (std::uint64_t w = 0; w < bits / 64; ++w) blob.u64(~std::uint64_t{0});
    EXPECT_THROW(decode_frame(frame_of(MessageType::kBloomSummary,
                                       blob.bytes())),
                 std::invalid_argument)
        << bits << " bits, " << hashes << " hashes";
  }
}

TEST(WireProperty, EveryTruncationOfEveryFrameIsRejected) {
  for (const Message& message : sample_messages()) {
    const auto frame = encode_frame(message);
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
      std::vector<std::uint8_t> prefix(frame.begin(),
                                       frame.begin() + keep);
      EXPECT_THROW(decode_frame(prefix), std::invalid_argument)
          << "type " << static_cast<int>(message_type(message))
          << " truncated to " << keep << " of " << frame.size();
    }
  }
}

TEST(WireProperty, TrailingBytesAfterAnyFrameAreRejected) {
  util::Xoshiro256 rng(0x7a11);
  for (const Message& message : sample_messages()) {
    for (std::size_t extra = 1; extra <= 4; ++extra) {
      auto frame = encode_frame(message);
      for (std::size_t i = 0; i < extra; ++i) {
        frame.push_back(static_cast<std::uint8_t>(rng()));
      }
      EXPECT_THROW(decode_frame(frame), std::invalid_argument);
    }
  }
}

TEST(WireProperty, CorruptedMagicIsAlwaysRejected) {
  for (const Message& message : sample_messages()) {
    const auto frame = encode_frame(message);
    for (int bit = 0; bit < 16; ++bit) {
      auto bad = frame;
      bad[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_THROW(decode_frame(bad), std::invalid_argument);
    }
  }
}

TEST(WireProperty, RandomSingleByteCorruptionNeverCrashes) {
  util::Xoshiro256 rng(0xc0881);
  const auto messages = sample_messages();
  for (int trial = 0; trial < 2000; ++trial) {
    auto frame = encode_frame(messages[trial % messages.size()]);
    const std::size_t pos = rng.next_below(frame.size());
    frame[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    // Either the corruption is detected or it produced a different but
    // well-formed message; both are acceptable, crashing is not.
    try {
      (void)decode_frame(frame);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(WireProperty, RandomGarbageNeverCrashesDecoders) {
  util::Xoshiro256 rng(0x6a5ba6e);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(96));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      (void)decode_frame(bytes);
    } catch (const std::invalid_argument&) {
    }
    std::vector<std::uint64_t> constituents;
    try {
      (void)decode_symbol_frame(bytes, constituents);
    } catch (const std::invalid_argument&) {
    }
  }
}

}  // namespace
}  // namespace icd::wire
