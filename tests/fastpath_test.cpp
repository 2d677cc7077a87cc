// Tests for the zero-allocation symbol fast path: every XOR kernel variant
// and its run-time dispatch against a scalar reference, BufferPool
// recycling and hygiene, pooled transport buffers (aliasing /
// reuse-after-release), the send cost of fragment trains and the
// reassembly cost of a hostile fragment, the channel's one-hop queue
// residency, the steady-state allocation guarantee of the endpoint send
// path, the decoders' one payload copy per symbol and their exact
// memory_bytes(), neighbor-set derivation at large degrees and the
// control-frame decode of a sketch and a Bloom summary.
//
// This binary replaces global operator new/delete with counting versions;
// keep it free of death tests and threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "codec/block_source.hpp"
#include "codec/decoder.hpp"
#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/peeling.hpp"
#include "codec/recoder.hpp"
#include "codec/symbol.hpp"
#include "core/endpoint.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "core/session.hpp"
#include "filter/bloom.hpp"
#include "sketch/minwise.hpp"
#include "util/random.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/channel.hpp"
#include "wire/message.hpp"
#include "wire/transport.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
// Bytes requested, so tests can bound what one input costs.
std::atomic<std::size_t> g_allocated_bytes{0};
// Payload-copy accounting: allocations at least g_large_threshold bytes
// count separately, so tests can budget "one payload-sized copy per
// symbol" without noise from small container nodes.
std::atomic<std::size_t> g_large_allocations{0};
std::atomic<std::size_t> g_large_threshold{SIZE_MAX};
// Heap bytes held: allocations add their size and sized frees subtract
// it (an unsized free cannot), so a test can compare what an object holds
// with what it reports.
std::atomic<std::size_t> g_live_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size >= g_large_threshold.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size >= g_large_threshold.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = ((size ? size : 1) + alignment - 1) /
                              alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

void counted_sized_free(void* p, std::size_t size) {
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t size) noexcept {
  counted_sized_free(p, size);
}
void operator delete[](void* p, std::size_t size) noexcept {
  counted_sized_free(p, size);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t size, std::align_val_t) noexcept {
  counted_sized_free(p, size);
}
void operator delete[](void* p, std::size_t size, std::align_val_t) noexcept {
  counted_sized_free(p, size);
}

namespace icd {
namespace {

// --- XOR kernel variants ---------------------------------------------------

/// Byte-at-a-time ground truth for xor_bytes.
void xor_bytes_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

/// Every xor_bytes variant this CPU can run, plus the dispatched entry.
std::vector<std::pair<const char*, codec::XorKernel>> xor_kernels() {
  std::vector<std::pair<const char*, codec::XorKernel>> kernels{
      {"portable", codec::xor_bytes_portable},
      {"dispatched", codec::xor_bytes}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    kernels.emplace_back("avx2", codec::xor_bytes_avx2);
  }
#endif
  return kernels;
}

TEST(XorKernel, MatchesScalarReferenceIncludingOddTails) {
  // Every length from 0 through a few words + every tail remainder, then
  // every boundary of the 32-byte blocks (block edge, block+word,
  // block+word+bytes) and odd tails at scale: each variant and the scalar
  // loop must agree bit-for-bit.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (const std::size_t n :
       {41u, 63u, 64u, 65u, 95u, 96u, 97u, 127u, 128u, 129u, 255u, 256u,
        257u, 1024u, 1400u, 4097u}) {
    lengths.push_back(n);
  }
  for (const auto& [name, kernel] : xor_kernels()) {
    util::Xoshiro256 rng(0xfa57);
    for (const std::size_t n : lengths) {
      std::vector<std::uint8_t> a(n), b(n);
      for (auto& v : a) v = static_cast<std::uint8_t>(rng());
      for (auto& v : b) v = static_cast<std::uint8_t>(rng());
      auto expected = a;
      xor_bytes_scalar(expected.data(), b.data(), n);
      kernel(a.data(), b.data(), n);
      EXPECT_EQ(a, expected) << name << ", length " << n;
    }
  }
}

TEST(XorKernel, DispatchPicksAvx2IffTheCpuHasIt) {
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2");
  EXPECT_EQ(codec::xor_bytes_kernel() == codec::xor_bytes_avx2, avx2);
#else
  EXPECT_EQ(codec::xor_bytes_kernel(), codec::xor_bytes_portable);
#endif
}

TEST(XorKernel, XorIntoEmptyOperandSemantics) {
  // Empty source: no-op. Empty destination: copy. Mismatch: throws.
  std::vector<std::uint8_t> dst{1, 2, 3};
  codec::xor_into(dst, std::span<const std::uint8_t>{});
  EXPECT_EQ(dst, (std::vector<std::uint8_t>{1, 2, 3}));

  std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> src{7, 8, 9};
  codec::xor_into(empty, std::span<const std::uint8_t>(src));
  EXPECT_EQ(empty, src);

  std::vector<std::uint8_t> mismatched{1};
  EXPECT_THROW(
      codec::xor_into(mismatched, std::span<const std::uint8_t>(src)),
      std::invalid_argument);
}

TEST(XorKernel, SelfCancellation) {
  std::vector<std::uint8_t> a(129);
  util::Xoshiro256 rng(2);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng());
  auto b = a;
  codec::xor_into(a, b);
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint8_t v) { return v == 0; }));
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesWithFullHitRateAfterWarmup) {
  wire::BufferPool pool;
  // Warmup: one buffer enters circulation.
  auto buffer = pool.acquire();
  buffer.resize(512);
  pool.release(std::move(buffer));

  const std::size_t acquires_before = pool.stats().acquires;
  const std::size_t hits_before = pool.stats().hits;
  for (int i = 0; i < 100; ++i) {
    auto b = pool.acquire();
    EXPECT_TRUE(b.empty());
    EXPECT_GE(b.capacity(), 512u);  // the recycled storage
    b.resize(256);
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.stats().acquires - acquires_before, 100u);
  EXPECT_EQ(pool.stats().hits - hits_before, 100u);  // 100% hit rate
}

TEST(BufferPool, ReleasedBuffersComeBackCleared) {
  wire::BufferPool pool;
  auto buffer = pool.acquire();
  buffer.assign(64, 0xee);
  pool.release(std::move(buffer));
  const auto recycled = pool.acquire();
  // Reuse-after-release hygiene: no stale bytes from the previous frame.
  EXPECT_TRUE(recycled.empty());
}

TEST(BufferPool, DistinctOutstandingBuffersNeverAlias) {
  wire::BufferPool pool;
  auto a = pool.acquire();
  auto b = pool.acquire();
  a.assign(32, 0x11);
  b.assign(32, 0x22);
  EXPECT_NE(a.data(), b.data());
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint8_t v) { return v == 0x11; }));
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 2u);
}

TEST(BufferPool, BoundsRetainedBuffers) {
  wire::BufferPool pool;
  std::vector<std::vector<std::uint8_t>> outstanding;
  for (std::size_t i = 0; i < wire::BufferPool::kMaxPooled + 10; ++i) {
    outstanding.push_back(pool.acquire());
  }
  for (auto& b : outstanding) pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), wire::BufferPool::kMaxPooled);
}

// --- Pooled transport buffers: reuse across frames --------------------------

TEST(Transport, PooledBufferReuseNeverLeaksAcrossFrames) {
  // Shrinking payloads across recycled buffers: any stale-byte leak from a
  // longer previous frame would corrupt the shorter next frame.
  wire::Pipe pipe(2048);
  util::Xoshiro256 rng(77);
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t size = 1 + (997 * (50 - round)) % 1024;
    std::vector<std::uint8_t> payload(size);
    for (auto& v : payload) v = static_cast<std::uint8_t>(rng());
    ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{round, payload}));
    auto received = pipe.b().receive_frame();
    ASSERT_TRUE(received.has_value());
    const auto* view = std::get_if<codec::EncodedSymbolView>(&*received);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->id, round);
    ASSERT_EQ(view->payload.size(), payload.size());
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           payload.begin()));
  }
  // Steady state: every buffer came from the pool after the first cycle.
  EXPECT_GT(pipe.a().pool().stats().hits, 40u);
}

TEST(Transport, ViewsAreInvalidatedOnlyByTheNextReceive) {
  wire::Pipe pipe(2048);
  const std::vector<std::uint8_t> p1(100, 0xaa);
  const std::vector<std::uint8_t> p2(100, 0xbb);
  ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{1, p1}));
  ASSERT_TRUE(pipe.a().send(codec::EncodedSymbolView{2, p2}));

  auto first = pipe.b().receive_frame();
  ASSERT_TRUE(first.has_value());
  const auto view1 = std::get<codec::EncodedSymbolView>(*first);
  // Borrowed data is intact until the next receive call...
  EXPECT_EQ(view1.payload[0], 0xaa);

  auto second = pipe.b().receive_frame();
  ASSERT_TRUE(second.has_value());
  const auto view2 = std::get<codec::EncodedSymbolView>(*second);
  EXPECT_EQ(view2.id, 2u);
  EXPECT_EQ(view2.payload[0], 0xbb);
  // ...and the single-copy rule means consumers must have copied view1 by
  // now (its storage has been recycled; view1 must not be dereferenced).
}

TEST(Transport, RecodedViewRoundTripsThroughPool) {
  wire::Pipe pipe(2048);
  const std::vector<std::uint64_t> constituents{5, 9, 123456789};
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        pipe.a().send(codec::RecodedSymbolView{constituents, payload}));
    auto received = pipe.b().receive_frame();
    ASSERT_TRUE(received.has_value());
    const auto* view = std::get_if<codec::RecodedSymbolView>(&*received);
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->degree(), constituents.size());
    EXPECT_TRUE(std::equal(view->constituents.begin(),
                           view->constituents.end(), constituents.begin()));
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           payload.begin()));
  }
}

TEST(Transport, FragmentedSymbolsStillReachTheReceiver) {
  // Symbols larger than the link MTU cross it as Fragment trains; the
  // reassembled frame decodes like a datagram, so each reaches the
  // receiver's decoder as a view into it.
  constexpr std::size_t kBlocks = 40;
  constexpr std::size_t kBlockSize = 256;  // frame > MTU below
  util::Xoshiro256 content_rng(11);
  std::vector<std::uint8_t> content(kBlocks * kBlockSize);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(content_rng());
  const auto dist = codec::DegreeDistribution::robust_soliton(kBlocks);
  core::OriginServer origin(content, kBlockSize, dist, 31);
  core::Peer sender_peer("sender", origin.parameters(), dist);
  core::Peer receiver_peer("receiver", origin.parameters(), dist);
  for (int i = 0; i < 120; ++i) sender_peer.receive_encoded(origin.next());

  wire::Pipe pipe(/*mtu=*/128);
  // Every data frame the sender hands the link must be a Fragment.
  std::size_t data_frames = 0;
  std::size_t data_fragments = 0;
  pipe.a().set_frame_observer(
      [&](const std::vector<std::uint8_t>& frame, bool is_control) {
        if (is_control) return;
        ++data_frames;
        data_fragments +=
            frame[3] == static_cast<std::uint8_t>(wire::MessageType::kFragment);
      });
  core::SessionOptions options;
  options.strategy = overlay::Strategy::kRecode;
  core::SenderEndpoint sender(sender_peer, options, pipe.a());
  core::ReceiverEndpoint receiver(receiver_peer, options, pipe.b());
  receiver.start();
  for (int i = 0; i < 64 && !receiver.transfer_started(); ++i) {
    sender.tick();
    receiver.tick();
  }
  ASSERT_TRUE(sender.transfer_active());

  for (int i = 0; i < 400 && !receiver.complete(); ++i) {
    sender.send_symbol();
    receiver.tick();
  }
  EXPECT_GT(receiver.symbols_received(), 0u);
  EXPECT_EQ(receiver.symbols_received(), sender.symbols_sent());
  EXPECT_EQ(data_fragments, data_frames);
  EXPECT_GE(data_frames, 2 * sender.symbols_sent());
  EXPECT_EQ(pipe.b().stats().malformed_frames, 0u);
  EXPECT_TRUE(receiver.complete());
  EXPECT_EQ(receiver_peer.content(content.size()), content);
}

TEST(Transport, FragmentClaimingAHugeTotalCostsWhatArrived) {
  // `total` is an untrusted 16-bit field: an 18-byte datagram claiming
  // 65535 slices must cost the bytes that arrived, not 65535 slots.
  wire::Pipe pipe;
  const wire::Fragment claim{1, 0, 65535, {1, 2, 3, 4}};
  ASSERT_EQ(wire::encode_frame(claim).size(), 18u);
  ASSERT_TRUE(pipe.a().send(claim));
  const std::size_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  EXPECT_FALSE(pipe.b().receive_frame().has_value());
  const std::size_t allocated =
      g_allocated_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(allocated, 4096u);
  EXPECT_LT(pipe.b().memory_bytes(), 4096u);

  // At the partial cap, every partial is such a claim: still bounded.
  for (std::uint32_t s = 2; s <= wire::kMaxPartialReassemblies; ++s) {
    ASSERT_TRUE(pipe.a().send(wire::Fragment{s, 0, 65535, {1, 2, 3, 4}}));
  }
  EXPECT_FALSE(pipe.b().receive_frame().has_value());
  EXPECT_LT(pipe.b().memory_bytes(), 4096u * wire::kMaxPartialReassemblies);
}

TEST(Transport, WarmFragmentTrainsAllocateAtMostOncePerFragment) {
  // A 1,050-byte sketch frame crosses a 600-byte link as two fragments.
  // Each fragment's header and slice are written straight into a pooled
  // buffer, so once the pool's buffers have grown to frame size a send
  // allocates nothing of its own (the budget allows one per fragment).
  sketch::MinwiseSketch sketch(core::kSymbolIdUniverse);
  util::Xoshiro256 rng(0xf4a9);
  for (int i = 0; i < 300; ++i) sketch.update(rng() >> 1);
  const wire::Message message = wire::SketchMessage{sketch};
  ASSERT_EQ(wire::encode_frame(message).size(), 1050u);

  wire::Pipe pipe(/*mtu=*/600);
  const auto round_trip = [&] {
    ASSERT_TRUE(pipe.a().send(message));
    const auto received = pipe.b().receive_frame();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(std::get<wire::SketchMessage>(std::get<wire::Message>(*received))
                  .sketch.minima(),
              sketch.minima());
  };
  for (int i = 0; i < 8; ++i) round_trip();  // warm the pool

  const std::size_t frames_before = pipe.a().stats().frames_sent;
  std::size_t send_allocations = 0;
  for (int i = 0; i < 100; ++i) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    ASSERT_TRUE(pipe.a().send(message));
    send_allocations += g_allocations.load(std::memory_order_relaxed) - before;
    const auto received = pipe.b().receive_frame();
    ASSERT_TRUE(received.has_value());
  }
  const std::size_t fragments = pipe.a().stats().frames_sent - frames_before;
  EXPECT_EQ(fragments, 200u);
  EXPECT_LE(send_allocations, fragments);
  EXPECT_EQ(pipe.b().stats().malformed_frames, 0u);
}

// --- One-hop queue residency ------------------------------------------------

TEST(LossyChannel, OneHopMinimumResidency) {
  wire::LossyChannel channel(wire::ChannelConfig{});
  ASSERT_TRUE(channel.send_message(wire::Request{1}));
  EXPECT_TRUE(channel.pending());
  // First drain: the frame is still in flight; the empty receive advances
  // the clock.
  EXPECT_TRUE(channel.receive().empty());
  // Second drain: delivered.
  EXPECT_FALSE(channel.receive().empty());
  EXPECT_FALSE(channel.pending());
}

TEST(LossyChannel, FlushReleasesInFlightFrame) {
  wire::LossyChannel channel(wire::ChannelConfig{});
  ASSERT_TRUE(channel.send_message(wire::Request{7}));
  channel.flush();
  const auto frame = channel.receive();
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(
      std::get<wire::Request>(wire::decode_control_frame(frame)).symbols_desired,
      7u);
}

TEST(LossyChannel, ReorderBitesForDrainEveryTickDrivers) {
  // The workaround this replaces: drivers had to skip alternate drains for
  // reorder_rate to matter. With one-hop residency, a driver that fully
  // drains after every single send still observes reordering.
  wire::ChannelConfig config;
  config.reorder_rate = 0.5;
  config.seed = 1234;
  wire::LossyChannel channel(config);

  std::vector<std::uint64_t> delivered;
  constexpr std::uint64_t kFrames = 400;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel.send_message(wire::Request{i}));
    while (true) {  // drain everything deliverable, every tick
      const auto frame = channel.receive();
      if (frame.empty()) break;
      delivered.push_back(std::get<wire::Request>(
                              wire::decode_control_frame(frame))
                              .symbols_desired);
    }
  }
  channel.flush();
  while (channel.pending()) {
    const auto frame = channel.receive();
    if (frame.empty()) continue;
    delivered.push_back(
        std::get<wire::Request>(wire::decode_control_frame(frame))
            .symbols_desired);
  }

  ASSERT_EQ(delivered.size(), kFrames);  // reordered, never lost
  std::size_t out_of_order = 0;
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    if (delivered[i] < delivered[i - 1]) ++out_of_order;
  }
  EXPECT_GT(out_of_order, kFrames / 10);
}

// --- Steady-state allocation guarantee --------------------------------------

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

class SendPathAllocations
    : public ::testing::TestWithParam<overlay::Strategy> {};

TEST_P(SendPathAllocations, SteadyStateSendsAreAllocationFree) {
  constexpr std::size_t kBlocks = 200;
  constexpr std::size_t kBlockSize = 64;
  const auto content = random_content(kBlocks * kBlockSize, 5);
  const auto dist = codec::DegreeDistribution::robust_soliton(kBlocks);
  core::OriginServer origin(content, kBlockSize, dist, 777);
  core::Peer sender_peer("sender", origin.parameters(), dist);
  core::Peer receiver_peer("receiver", origin.parameters(), dist);
  for (int i = 0; i < 260; ++i) sender_peer.receive_encoded(origin.next());
  for (int i = 0; i < 80; ++i) receiver_peer.receive_encoded(origin.next());

  wire::Pipe pipe(core::kSessionPipeMtu);
  core::SessionOptions options;
  options.strategy = GetParam();
  core::SenderEndpoint sender(sender_peer, options, pipe.a());
  core::ReceiverEndpoint receiver(receiver_peer, options, pipe.b());
  receiver.start();
  for (int i = 0; i < 16 && !receiver.transfer_started(); ++i) {
    sender.tick();
    receiver.tick();
  }
  ASSERT_TRUE(sender.transfer_active());

  // Warmup: let every scratch vector, pool buffer and queue slot reach its
  // steady-state capacity.
  for (int i = 0; i < 300; ++i) {
    sender.send_symbol();
    receiver.tick();
  }

  // Measured phase: the send path must not allocate at all, and every
  // transport buffer must come from the pool (hit rate == 100%).
  const auto& pool_stats = pipe.a().pool().stats();
  const std::size_t acquires_before = pool_stats.acquires;
  const std::size_t hits_before = pool_stats.hits;
  std::size_t send_allocations = 0;
  constexpr int kMeasured = 300;
  for (int i = 0; i < kMeasured; ++i) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    ASSERT_TRUE(sender.send_symbol());
    send_allocations +=
        g_allocations.load(std::memory_order_relaxed) - before;
    receiver.tick();  // receive side owns the budgeted single copy
  }
  EXPECT_EQ(send_allocations, 0u) << overlay::strategy_name(GetParam());
  EXPECT_EQ(pool_stats.acquires - acquires_before,
            static_cast<std::size_t>(kMeasured));
  EXPECT_EQ(pool_stats.hits - hits_before, pool_stats.acquires - acquires_before)
      << "pool hit rate below 100% after warmup";
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SendPathAllocations,
                         ::testing::ValuesIn(overlay::kAllStrategies));

// --- Decoder payload copies and memory audit ------------------------------

/// Random content of `blocks` blocks of `block_size` bytes and an encoder
/// over it.
struct EncodedContent {
  EncodedContent(std::uint32_t blocks, std::size_t block_size)
      : source(random_content(blocks * block_size, 0x51), block_size),
        dist(codec::DegreeDistribution::robust_soliton(blocks)),
        encoder(source, dist, 0x52) {}

  codec::BlockSource source;
  codec::DegreeDistribution dist;
  codec::Encoder encoder;
};

// Budget for both decoders the engine runs: at most one payload-sized
// allocation per symbol (its copy into the solver's pooled storage), plus
// tiny slack for geometric container growth crossing the threshold.
constexpr std::size_t kPayloadBytes = 4096;
constexpr std::size_t kMeasuredSymbols = 24;
constexpr std::size_t kGrowthSlack = 2;

TEST(DecoderAllocations, AddSymbolCopiesPayloadOnce) {
  const std::uint32_t kBlocks = 32;
  EncodedContent content(kBlocks, kPayloadBytes);
  codec::Decoder decoder(content.encoder.parameters(), content.dist);

  // Warm the decoder and pre-generate the measured symbols so encoder
  // allocations don't pollute the budget.
  for (std::uint32_t i = 0; i < kBlocks / 2; ++i) {
    const auto symbol = content.encoder.next();
    decoder.add_symbol(symbol.id, symbol.payload);
  }
  std::vector<codec::EncodedSymbol> symbols;
  for (std::size_t i = 0; i < kMeasuredSymbols; ++i) {
    symbols.push_back(content.encoder.next());
  }

  g_large_allocations.store(0, std::memory_order_relaxed);
  g_large_threshold.store(kPayloadBytes, std::memory_order_relaxed);
  for (const auto& symbol : symbols) {
    decoder.add_symbol(symbol.id, symbol.payload);
  }
  g_large_threshold.store(SIZE_MAX, std::memory_order_relaxed);

  EXPECT_LE(g_large_allocations.load(std::memory_order_relaxed),
            kMeasuredSymbols + kGrowthSlack)
      << "payload copied more than once per add_symbol";
}

TEST(DecoderAllocations, AddRecodedCopiesPayloadOnce) {
  const std::uint32_t kBlocks = 32;
  EncodedContent content(kBlocks, kPayloadBytes);
  std::vector<codec::EncodedSymbol> encoded;
  for (std::uint32_t i = 0; i < 2 * kBlocks; ++i) {
    encoded.push_back(content.encoder.next());
  }
  // The receiver holds the first half; each measured recoded symbol blends
  // a held symbol with one unheld symbol (recovered at once) or, on odd
  // turns but the last, two (buffered until the next turn recovers one).
  constexpr std::size_t kHeld = kBlocks / 2;
  codec::RecodeDecoder decoder;
  for (std::size_t i = 0; i < kHeld; ++i) decoder.add_held_symbol(encoded[i]);
  std::vector<codec::RecodedSymbol> symbols;
  for (std::size_t j = 0; j < kMeasuredSymbols; ++j) {
    std::vector<std::size_t> picks{j % kHeld, kHeld + j};
    if (j % 2 == 1 && j + 1 < kMeasuredSymbols) picks.push_back(kHeld + j + 1);
    codec::RecodedSymbol symbol;
    for (const std::size_t pick : picks) {
      symbol.constituents.push_back(encoded[pick].id);
      codec::xor_into(symbol.payload, encoded[pick].payload);
    }
    std::sort(symbol.constituents.begin(), symbol.constituents.end());
    symbols.push_back(std::move(symbol));
  }

  g_large_allocations.store(0, std::memory_order_relaxed);
  g_large_threshold.store(kPayloadBytes, std::memory_order_relaxed);
  for (const auto& symbol : symbols) {
    decoder.add_recoded(codec::RecodedSymbolView(symbol));
  }
  g_large_threshold.store(SIZE_MAX, std::memory_order_relaxed);

  EXPECT_EQ(decoder.symbol_count(), kHeld + kMeasuredSymbols);
  EXPECT_LE(g_large_allocations.load(std::memory_order_relaxed),
            kMeasuredSymbols + kGrowthSlack)
      << "payload copied more than once per add_recoded";
}

template <typename Key>
class PeelingMemoryBytes : public ::testing::Test {};
using PeelingKeys = ::testing::Types<std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(PeelingMemoryBytes, PeelingKeys);

TYPED_TEST(PeelingMemoryBytes, EqualsTheHeapBytesTheDecoderHolds) {
  // Every input exists before the baseline and reaches the decoder through
  // the span overloads, which copy into the decoder's own storage, so the
  // live heap bytes since the baseline are the decoder's alone.
  using Key = TypeParam;
  constexpr Key kChain = 20;
  const std::vector<std::uint8_t> payload(32, 0xa5);
  std::vector<std::vector<Key>> chain;  // {k, k + 1}: one seed peels all
  for (Key k = 0; k < kChain; ++k) chain.push_back({k, Key(k + 1)});
  // Unsorted, with repeats: cancels to {27, 30} through the dedup scratch.
  const std::vector<Key> unsorted{31, 25, 31, 27, 25, 30};

  const std::size_t baseline = g_live_bytes.load(std::memory_order_relaxed);
  codec::PeelingDecoder<Key> decoder;
  const auto held = [&] {
    return g_live_bytes.load(std::memory_order_relaxed) - baseline;
  };

  for (const auto& keys : chain) {
    decoder.add_equation(std::span<const Key>(keys), payload);
  }
  ASSERT_EQ(decoder.buffered_count(), std::size_t{kChain});
  EXPECT_EQ(held(), decoder.memory_bytes()) << "after buffering";

  decoder.add_equation(std::span<const Key>(unsorted), payload);
  ASSERT_EQ(decoder.buffered_count(), std::size_t{kChain} + 1);
  EXPECT_EQ(held(), decoder.memory_bytes()) << "after unsorted repeats";

  ASSERT_TRUE(
      decoder.mark_known(Key{0}, std::span<const std::uint8_t>(payload)));
  ASSERT_EQ(decoder.known_count(), std::size_t{kChain} + 1);
  EXPECT_EQ(held(), decoder.memory_bytes()) << "after a recovery cascade";

  decoder.release_solver_state();
  EXPECT_EQ(held(), decoder.memory_bytes()) << "after release";
}

TEST(DecoderAllocations, WarmLargeDegreeNeighborSetsAllocateNothing) {
  // robust_soliton(512) draws a degree above 64 a few percent of the
  // time, and such a draw once took a hash set per call. Block decoders
  // and origin encoders derive every neighbor set this way.
  const codec::CodeParameters params{512, 0x5eed};
  const auto dist = codec::DegreeDistribution::robust_soliton(512);
  std::vector<std::uint32_t> neighbors;
  std::vector<std::uint64_t> picks;
  std::vector<std::uint64_t> large_ids;
  // The search also warms both vectors up to the largest degree drawn.
  for (std::uint64_t id = 0; large_ids.size() < 16; ++id) {
    codec::symbol_neighbors_into(neighbors, picks, params, dist, id);
    if (neighbors.size() > 64) large_ids.push_back(id);
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (const std::uint64_t id : large_ids) {
    codec::symbol_neighbors_into(neighbors, picks, params, dist, id);
    ASSERT_GT(neighbors.size(), 64u);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

// --- Control-frame decode ---------------------------------------------------

TEST(ControlDecode, SketchFrameCostsOnlyTheDecodedMinima) {
  // The summary decoders read their blob in place in the frame: a default
  // sketch frame costs the decoded sketch's minima and nothing else.
  sketch::MinwiseSketch sketch(core::kSymbolIdUniverse);
  util::Xoshiro256 rng(0x5c);
  for (int i = 0; i < 300; ++i) sketch.update(rng() >> 1);
  const auto frame = wire::encode_frame(wire::SketchMessage{sketch});
  ASSERT_EQ(frame.size(), 1050u);
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed);
  const std::size_t bytes = g_allocated_bytes.load(std::memory_order_relaxed);
  const wire::Message decoded = wire::decode_control_frame(frame);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - allocations, 1u);
  EXPECT_EQ(g_allocated_bytes.load(std::memory_order_relaxed) - bytes,
            sketch.permutation_count() * sizeof(std::uint64_t));
  EXPECT_EQ(std::get<wire::SketchMessage>(decoded).sketch.minima(),
            sketch.minima());
}

TEST(ControlDecode, BloomFrameCostsOneBitArray) {
  // The bit array is decoded straight into the filter the decoder
  // constructs: one allocation of the array's words, no second array to
  // replace it with.
  auto filter = filter::BloomFilter::with_bits_per_element(
      1000, filter::kSummaryBitsPerElement);
  util::Xoshiro256 rng(0xb1);
  for (int i = 0; i < 1000; ++i) filter.insert(rng() >> 1);
  const auto frame = wire::encode_frame(wire::BloomSummaryMessage{filter});
  const std::size_t words = (filter.bit_count() + 63) / 64;
  ASSERT_EQ(words, 125u);
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed);
  const std::size_t bytes = g_allocated_bytes.load(std::memory_order_relaxed);
  const wire::Message decoded = wire::decode_control_frame(frame);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - allocations, 1u);
  EXPECT_EQ(g_allocated_bytes.load(std::memory_order_relaxed) - bytes,
            words * sizeof(std::uint64_t));
  const auto& restored = std::get<wire::BloomSummaryMessage>(decoded).filter;
  EXPECT_EQ(restored.bit_count(), filter.bit_count());
  EXPECT_EQ(restored.serialize(), filter.serialize());
}

}  // namespace
}  // namespace icd
