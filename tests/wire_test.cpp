// Tests for icd::wire: frame serialization and the one frame decoder, the
// simulated lossy channel, and the transport's one-frame-per-datagram and
// fragment reassembly rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "util/buffer.hpp"
#include "wire/channel.hpp"
#include "wire/message.hpp"
#include "wire/transport.hpp"

namespace icd::wire {
namespace {

/// Decodes `frame` for its verdict alone: throws exactly when decode_frame
/// does.
void decode_only(std::span<const std::uint8_t> frame) {
  std::vector<std::uint64_t> constituents;
  (void)decode_frame(frame, constituents);
}

/// A frame of `type` around `payload`, written by hand so tests can frame
/// payloads no encoder produces.
std::vector<std::uint8_t> raw_frame(MessageType type,
                                    std::span<const std::uint8_t> payload) {
  util::ByteWriter frame;
  frame.u16(kMagic);
  frame.u8(kVersion);
  frame.u8(static_cast<std::uint8_t>(type));
  frame.varint(payload.size());
  frame.raw(payload);
  return frame.take();
}

/// `blob` length-prefixed in a frame of `type`, the way encode_frame
/// writes sketches and Bloom/ART summaries.
std::vector<std::uint8_t> summary_frame(MessageType type,
                                        const std::vector<std::uint8_t>& blob) {
  util::ByteWriter payload;
  payload.varint(blob.size());
  payload.raw(blob);
  return raw_frame(type, payload.bytes());
}

TEST(WireMessage, HelloRoundTrip) {
  const Hello hello{1234, 0xdeadbeefULL, 567};
  const auto frame = encode_frame(hello);
  const auto decoded = decode_control_frame(frame);
  ASSERT_TRUE(std::holds_alternative<Hello>(decoded));
  EXPECT_EQ(std::get<Hello>(decoded), hello);
}

TEST(WireMessage, RequestRoundTrip) {
  const Request request{987654};
  const auto decoded = decode_control_frame(encode_frame(request));
  ASSERT_TRUE(std::holds_alternative<Request>(decoded));
  EXPECT_EQ(std::get<Request>(decoded), request);
}

TEST(WireMessage, RequestUpdateRoundTrip) {
  for (const std::uint64_t remaining : {std::uint64_t{0}, std::uint64_t{17},
                                        std::uint64_t{1} << 40}) {
    const RequestUpdate update{remaining};
    const auto decoded = decode_control_frame(encode_frame(update));
    ASSERT_TRUE(std::holds_alternative<RequestUpdate>(decoded));
    EXPECT_EQ(std::get<RequestUpdate>(decoded), update);
  }
}

TEST(WireMessage, EncodedSymbolRoundTrip) {
  const codec::EncodedSymbol symbol{42, {1, 2, 3, 4, 5}};
  const auto frame = encode_frame(codec::EncodedSymbolView(symbol));
  std::vector<std::uint64_t> constituents;
  const auto decoded = decode_frame(frame, constituents);
  const auto* view = std::get_if<codec::EncodedSymbolView>(&decoded);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->id, symbol.id);
  EXPECT_TRUE(std::ranges::equal(view->payload, symbol.payload));
  // The payload is borrowed from the frame, not copied.
  EXPECT_EQ(view->payload.data() + view->payload.size(),
            frame.data() + frame.size());
}

TEST(WireMessage, RecodedSymbolRoundTrip) {
  const codec::RecodedSymbol symbol{{10, 20, 30}, {9, 8}};
  const auto frame = encode_frame(codec::RecodedSymbolView(symbol));
  std::vector<std::uint64_t> constituents;
  const auto decoded = decode_frame(frame, constituents);
  const auto* view = std::get_if<codec::RecodedSymbolView>(&decoded);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(constituents, symbol.constituents);
  EXPECT_EQ(view->constituents.data(), constituents.data());
  EXPECT_TRUE(std::ranges::equal(view->payload, symbol.payload));
}

TEST(WireMessage, ControlDecodeRejectsSymbolFrames) {
  const codec::EncodedSymbol encoded{42, {1, 2, 3}};
  const codec::RecodedSymbol recoded{{10, 20}, {9, 8}};
  EXPECT_THROW(
      decode_control_frame(encode_frame(codec::EncodedSymbolView(encoded))),
      std::invalid_argument);
  EXPECT_THROW(
      decode_control_frame(encode_frame(codec::RecodedSymbolView(recoded))),
      std::invalid_argument);
}

TEST(WireMessage, SketchRoundTrip) {
  sketch::MinwiseSketch sketch(1 << 20, 32);
  sketch.update_all({1, 2, 3, 99});
  const auto decoded = decode_control_frame(encode_frame(SketchMessage{sketch}));
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
  EXPECT_EQ(
      std::get<SketchMessage>(decode_control_frame(expected)).sketch.minima(),
      sketch.minima());
}

TEST(WireMessage, RecodedSymbolFrameBytesArePinned) {
  const codec::RecodedSymbol symbol{
      {0x0102030405060708ULL, 42, 0xfedcba9876543210ULL}, {9, 8, 7}};
  const std::vector<std::uint8_t> expected{
      0xd0, 0x1c, 0x01, 0x07, 0x1d,                    // header, length 29
      0x03,                                            // degree 3
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,
      0x03, 0x09, 0x08, 0x07,                          // 3 payload bytes
  };
  EXPECT_EQ(encode_frame(codec::RecodedSymbolView(symbol)), expected);
  std::vector<std::uint64_t> scratch;
  const auto decoded = decode_frame(expected, scratch);
  const auto* view = std::get_if<codec::RecodedSymbolView>(&decoded);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(scratch, symbol.constituents);
  EXPECT_TRUE(std::ranges::equal(view->payload, symbol.payload));
}

TEST(WireMessage, EncodedSymbolFrameBytesArePinned) {
  const codec::EncodedSymbol small{0x0102030405060708ULL, {9, 8, 7}};
  const std::vector<std::uint8_t> expected{
      0xd0, 0x1c, 0x01, 0x06, 0x0c,                    // header, length 12
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
      0x03, 0x09, 0x08, 0x07,                          // 3 payload bytes
  };
  EXPECT_EQ(encode_frame(codec::EncodedSymbolView(small)), expected);
  std::vector<std::uint64_t> scratch;
  const auto decoded = decode_frame(expected, scratch);
  const auto* view = std::get_if<codec::EncodedSymbolView>(&decoded);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->id, small.id);
  EXPECT_TRUE(std::ranges::equal(view->payload, small.payload));

  // Two-byte varints: frame length 210 and payload size 200.
  const codec::EncodedSymbol large{0xfedcba9876543210ULL,
                                   std::vector<std::uint8_t>(200, 0x5a)};
  std::vector<std::uint8_t> expected_large{
      0xd0, 0x1c, 0x01, 0x06, 0xd2, 0x01,              // header, length 210
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,  // id
      0xc8, 0x01,                                      // 200 payload bytes
  };
  expected_large.insert(expected_large.end(), 200, 0x5a);
  EXPECT_EQ(encode_frame(codec::EncodedSymbolView(large)), expected_large);
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
      decode_control_frame(encode_frame(BloomSummaryMessage{filter}));
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
  const auto decoded =
      decode_control_frame(encode_frame(ArtSummaryMessage{summary}));
  ASSERT_TRUE(std::holds_alternative<ArtSummaryMessage>(decoded));
  EXPECT_EQ(std::get<ArtSummaryMessage>(decoded).summary.total_bits(),
            summary.total_bits());
}

TEST(WireMessage, TypeTagsAreStable) {
  EXPECT_EQ(message_type(Hello{}), MessageType::kHello);
  EXPECT_EQ(message_type(Request{}), MessageType::kRequest);
  const codec::EncodedSymbol encoded{1, {2}};
  const codec::RecodedSymbol recoded{{1}, {2}};
  EXPECT_EQ(encode_frame(codec::EncodedSymbolView(encoded))[3],
            static_cast<std::uint8_t>(MessageType::kEncodedSymbol));
  EXPECT_EQ(encode_frame(codec::RecodedSymbolView(recoded))[3],
            static_cast<std::uint8_t>(MessageType::kRecodedSymbol));
}

TEST(WireMessage, RejectsMalformedFrames) {
  auto frame = encode_frame(Hello{1, 2, 3});
  // Bad magic.
  auto bad = frame;
  bad[0] ^= 0xff;
  EXPECT_THROW(decode_only(bad), std::invalid_argument);
  // Bad version.
  bad = frame;
  bad[2] = 99;
  EXPECT_THROW(decode_only(bad), std::invalid_argument);
  // Unknown type.
  bad = frame;
  bad[3] = 200;
  EXPECT_THROW(decode_only(bad), std::invalid_argument);
  // Truncation.
  bad = frame;
  bad.pop_back();
  EXPECT_THROW(decode_only(bad), std::invalid_argument);
  // Trailing garbage.
  bad = frame;
  bad.push_back(0);
  EXPECT_THROW(decode_only(bad), std::invalid_argument);
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
  const codec::EncodedSymbol symbol{7, {0xaa, 0xbb}};
  const std::vector<std::pair<std::vector<std::uint8_t>, Message>> pairs = {
      {encode_frame(Hello{10, 20, 30}), Request{5}},
      {encode_frame(codec::EncodedSymbolView(symbol)), Request{6}}};
  for (const auto& [first, second] : pairs) {
    auto datagram = first;
    const auto tail = encode_frame(second);
    datagram.insert(datagram.end(), tail.begin(), tail.end());
    ASSERT_TRUE(inbound.send(std::move(datagram)));
  }
  ASSERT_TRUE(inbound.send_message(Request{7}));

  // The event clock holds the newest frame in flight until an empty
  // receive releases it, so drain over a few calls.
  std::vector<Message> delivered;
  for (int call = 0; call < 4; ++call) {
    while (auto frame = receiver.receive_frame()) {
      delivered.push_back(std::get<Message>(std::move(*frame)));
    }
  }
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(std::get<Request>(delivered[0]), Request{7});
  EXPECT_EQ(receiver.stats().malformed_frames, 2u);
  EXPECT_EQ(receiver.stats().frames_received, 3u);
  EXPECT_EQ(receiver.stats().messages_received, 1u);
}

// --- Fragment reassembly -----------------------------------------------------

/// `frame` cut into `total` Fragments of sequence `sequence` (the last slice
/// takes the remainder).
std::vector<Fragment> slice_frame(const std::vector<std::uint8_t>& frame,
                                  std::uint32_t sequence, std::uint16_t total) {
  std::vector<Fragment> slices;
  const std::size_t chunk = frame.size() / total;
  for (std::uint16_t i = 0; i < total; ++i) {
    const auto begin = frame.begin() + static_cast<std::ptrdiff_t>(i * chunk);
    const auto end = i + 1 == total
                         ? frame.end()
                         : begin + static_cast<std::ptrdiff_t>(chunk);
    slices.push_back(Fragment{sequence, i, total, {begin, end}});
  }
  return slices;
}

TEST(Transport, ReassemblyRulesHold) {
  Pipe pipe;
  Transport& rx = pipe.b();
  const auto drain = [&rx] {
    std::vector<Message> delivered;
    while (auto frame = rx.receive_frame()) {
      delivered.push_back(std::get<Message>(std::move(*frame)));
    }
    return delivered;
  };
  const std::size_t idle_bytes = rx.memory_bytes();

  // Out of order, with a duplicate (carrying other bytes) ignored.
  const auto hello = slice_frame(encode_frame(Hello{1, 2, 3}), 1, 3);
  ASSERT_TRUE(pipe.a().send(hello[2]));
  ASSERT_TRUE(pipe.a().send(hello[0]));
  ASSERT_TRUE(pipe.a().send(Fragment{1, 0, 3, {0xff}}));
  EXPECT_TRUE(drain().empty());
  EXPECT_GT(rx.memory_bytes(), idle_bytes);
  ASSERT_TRUE(pipe.a().send(hello[1]));
  auto delivered = drain();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(std::get<Hello>(delivered[0]), (Hello{1, 2, 3}));
  EXPECT_EQ(rx.memory_bytes(), idle_bytes);
  EXPECT_EQ(rx.stats().malformed_frames, 0u);

  // A total that disagrees with the partial's, an index past the total,
  // a zero total and an empty slice are each malformed; the empty slice
  // also drops its partial.
  ASSERT_TRUE(pipe.a().send(Fragment{2, 0, 3, {1}}));
  ASSERT_TRUE(pipe.a().send(Fragment{2, 1, 4, {2}}));
  ASSERT_TRUE(pipe.a().send(Fragment{3, 5, 5, {3}}));
  ASSERT_TRUE(pipe.a().send(Fragment{3, 0, 0, {3}}));
  ASSERT_TRUE(pipe.a().send(Fragment{4, 0, 2, {4}}));
  ASSERT_TRUE(pipe.a().send(Fragment{4, 1, 2, {}}));
  EXPECT_TRUE(drain().empty());
  EXPECT_EQ(rx.stats().malformed_frames, 4u);

  // Partials are capped: a new sequence past the cap evicts the oldest
  // (sequence 2, one slice), whose arrived slices count as stale.
  for (std::uint32_t s = 10; s < 10 + kMaxPartialReassemblies; ++s) {
    ASSERT_TRUE(pipe.a().send(Fragment{s, 0, 2, {5, 5}}));
  }
  EXPECT_TRUE(drain().empty());
  EXPECT_EQ(rx.stats().stale_fragments, 1u);
  // Sequence 2 is gone: its second slice now opens a fresh partial, which
  // evicts sequence 10.
  ASSERT_TRUE(pipe.a().send(Fragment{2, 1, 3, {2}}));
  EXPECT_TRUE(drain().empty());
  EXPECT_EQ(rx.stats().stale_fragments, 2u);
  EXPECT_EQ(rx.stats().messages_received, 1u);
}

TEST(Transport, ReassembledFragmentFrameIsMalformed) {
  // Fragments do not nest: a frame whose reassembly yields another
  // Fragment frame is counted malformed and delivers nothing.
  Pipe pipe;
  const auto inner = encode_frame(Fragment{9, 0, 1, {1, 2, 3, 4}});
  for (const auto& fragment : slice_frame(inner, 1, 2)) {
    ASSERT_TRUE(pipe.a().send(fragment));
  }
  EXPECT_FALSE(pipe.b().receive_frame().has_value());
  EXPECT_EQ(pipe.b().stats().malformed_frames, 1u);
  EXPECT_EQ(pipe.b().stats().messages_received, 0u);
}

// --- Property-style robustness: malformed inputs must throw, never UB ----

/// One valid frame of every type.
std::vector<std::vector<std::uint8_t>> sample_frames() {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(encode_frame(Hello{1234, 0xdeadbeefULL, 567}));
  frames.push_back(encode_frame(Request{987654}));
  const codec::EncodedSymbol encoded{42, {1, 2, 3, 4, 5, 6, 7}};
  frames.push_back(encode_frame(codec::EncodedSymbolView(encoded)));
  const codec::RecodedSymbol recoded{{10, 20, 30, 40}, {9, 8, 7}};
  frames.push_back(encode_frame(codec::RecodedSymbolView(recoded)));
  sketch::MinwiseSketch sketch(1 << 20, 16);
  sketch.update_all({1, 2, 3, 99});
  frames.push_back(encode_frame(SketchMessage{sketch}));
  auto filter = filter::BloomFilter::with_bits_per_element(64, 8.0);
  for (std::uint64_t i = 0; i < 64; ++i) filter.insert(i * 7);
  frames.push_back(encode_frame(BloomSummaryMessage{filter}));
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 100; ++i) keys.push_back(i * 1337);
  frames.push_back(encode_frame(ArtSummaryMessage{
      art::ArtSummary::build(art::ReconciliationTree(keys), 4.0, 4.0)}));
  frames.push_back(encode_frame(Fragment{7, 0, 2, {1, 2, 3}}));
  frames.push_back(encode_frame(RequestUpdate{12}));
  return frames;
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
    EXPECT_THROW(
        decode_only(raw_frame(MessageType::kRecodedSymbol, payload.bytes())),
        std::invalid_argument)
        << "degree " << degree;
  }
}

TEST(WireProperty, HugeSummaryCountsAreRejectedWithoutAllocating) {
  // Same class of corruption as the recoded-degree case, for the
  // size-prefixed summary deserializers: claimed element counts far
  // beyond the payload must be rejected, not allocated.
  util::ByteWriter sketch_blob;  // universe, seed, then an absurd count
  sketch_blob.u64(1ull << 20);
  sketch_blob.u64(42);
  sketch_blob.varint(std::uint64_t{1} << 40);
  EXPECT_THROW(decode_only(summary_frame(MessageType::kSketch,
                                         sketch_blob.take())),
               std::invalid_argument);

  util::ByteWriter bloom_blob;  // an absurd bit count, then the rest
  bloom_blob.varint(std::uint64_t{1} << 40);
  bloom_blob.varint(8);
  bloom_blob.u64(42);
  bloom_blob.varint(100);
  EXPECT_THROW(decode_only(summary_frame(MessageType::kBloomSummary,
                                         bloom_blob.take())),
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
    EXPECT_THROW(decode_only(summary_frame(MessageType::kBloomSummary,
                                           blob.take())),
                 std::invalid_argument)
        << bits << " bits, " << hashes << " hashes";
  }
}

TEST(WireProperty, EveryTruncationOfEveryFrameIsRejected) {
  for (const auto& frame : sample_frames()) {
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
      std::vector<std::uint8_t> prefix(frame.begin(),
                                       frame.begin() + keep);
      EXPECT_THROW(decode_only(prefix), std::invalid_argument)
          << "type " << static_cast<int>(frame[3]) << " truncated to "
          << keep << " of " << frame.size();
    }
  }
}

TEST(WireProperty, TrailingBytesAfterAnyFrameAreRejected) {
  util::Xoshiro256 rng(0x7a11);
  const auto junk = [&rng](std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    return bytes;
  };
  for (const auto& valid : sample_frames()) {
    for (std::size_t extra = 1; extra <= 4; ++extra) {
      auto frame = valid;
      const auto tail = junk(extra);
      frame.insert(frame.end(), tail.begin(), tail.end());
      EXPECT_THROW(decode_only(frame), std::invalid_argument);
    }
  }

  // Junk inside a summary blob, with every length prefix grown to cover
  // it: each deserializer must consume its blob exactly. The ART summary
  // nests two Bloom blobs, so pad each of them, and the summary itself.
  sketch::MinwiseSketch sketch(1 << 20, 16);
  sketch.update_all({1, 2, 3, 99});
  auto leaf = filter::BloomFilter::with_bits_per_element(64, 4.0);
  auto internal = filter::BloomFilter::with_bits_per_element(64, 4.0, 9);
  for (std::uint64_t i = 0; i < 64; ++i) {
    leaf.insert(i * 7);
    internal.insert(i * 11);
  }
  const auto padded = [](std::vector<std::uint8_t> blob,
                          const std::vector<std::uint8_t>& pad) {
    blob.insert(blob.end(), pad.begin(), pad.end());
    return blob;
  };
  // The ART summary blob by hand, `pad` in part 1 (the leaf filter blob),
  // 2 (the internal filter blob) or 3 (after both); part 0 pads nothing.
  enum ArtPart { kNone, kLeaf, kInternal, kSummary };
  const std::vector<std::uint8_t> none;
  const auto art_blob = [&](ArtPart part, const std::vector<std::uint8_t>& pad) {
    const auto leaf_blob = padded(leaf.serialize(), part == kLeaf ? pad : none);
    const auto internal_blob =
        padded(internal.serialize(), part == kInternal ? pad : none);
    util::ByteWriter blob;
    blob.varint(64);  // element count
    blob.u8(1);       // has leaf filter
    blob.u8(1);       // has internal filter
    blob.varint(leaf_blob.size());
    blob.raw(leaf_blob);
    blob.varint(internal_blob.size());
    blob.raw(internal_blob);
    return padded(blob.take(), part == kSummary ? pad : none);
  };
  // Unpadded, the hand-built blob decodes: only the padding is at fault.
  EXPECT_NO_THROW(decode_only(
      summary_frame(MessageType::kArtSummary, art_blob(kNone, none))));
  for (const std::size_t extra : {1, 8, 24}) {
    const auto pad = junk(extra);
    EXPECT_THROW(decode_only(summary_frame(MessageType::kSketch,
                                           padded(sketch.serialize(), pad))),
                 std::invalid_argument)
        << extra << " bytes in the sketch blob";
    EXPECT_THROW(decode_only(summary_frame(MessageType::kBloomSummary,
                                           padded(leaf.serialize(), pad))),
                 std::invalid_argument)
        << extra << " bytes in the Bloom blob";
    for (const ArtPart part : {kLeaf, kInternal, kSummary}) {
      EXPECT_THROW(decode_only(summary_frame(MessageType::kArtSummary,
                                             art_blob(part, pad))),
                   std::invalid_argument)
          << extra << " bytes in ART part " << part;
    }
  }
}

TEST(WireProperty, CorruptedMagicIsAlwaysRejected) {
  for (const auto& frame : sample_frames()) {
    for (int bit = 0; bit < 16; ++bit) {
      auto bad = frame;
      bad[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_THROW(decode_only(bad), std::invalid_argument);
    }
  }
}

TEST(WireProperty, RandomSingleByteCorruptionNeverCrashes) {
  util::Xoshiro256 rng(0xc0881);
  const auto frames = sample_frames();
  for (int trial = 0; trial < 2000; ++trial) {
    auto frame = frames[trial % frames.size()];
    const std::size_t pos = rng.next_below(frame.size());
    frame[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    // Either the corruption is detected or it produced a different but
    // well-formed frame; both are acceptable, crashing is not.
    try {
      decode_only(frame);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(WireProperty, RandomGarbageNeverCrashesDecoders) {
  util::Xoshiro256 rng(0x6a5ba6e);
  std::vector<std::uint64_t> constituents;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(96));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      (void)decode_frame(bytes, constituents);
    } catch (const std::invalid_argument&) {
    }
  }
}

}  // namespace
}  // namespace icd::wire
