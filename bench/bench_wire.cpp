// Wire and endpoint overhead measurements:
//   1. frame encode/decode throughput for data and control messages
//      (symbols encoded from and decoded into views),
//   2. endpoint-session symbol rate versus the direct-call path (the cost
//      of running the protocol through typed frames over a transport),
//   3. steady-state allocations per symbol on the endpoint send path and
//      the transport buffer-pool hit rate,
//   4. bytes-on-wire per strategy for a standard partial-transfer session.
//
// Emits BENCH_wire.json (flat key -> number) so future PRs can track the
// perf trajectory. --smoke shrinks iteration counts for CI.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/endpoint.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "core/session.hpp"
#include "util/random.hpp"
#include "wire/message.hpp"
#include "wire/transport.hpp"

// --- Counting allocator ----------------------------------------------------
// Global operator new/delete replacement for this binary: every heap
// allocation bumps a counter, so the bench can report exact
// allocations-per-symbol figures instead of inferring them from throughput.

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = ((size ? size : 1) + alignment - 1) /
                              alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
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
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  icd::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

void bench_frame_throughput(icd::bench::JsonReport& report, bool smoke) {
  icd::bench::print_header("frame encode/decode throughput");

  constexpr std::size_t kPayload = 1024;
  const std::size_t rounds = smoke ? 200 : 50000;
  const std::vector<std::uint8_t> payload(kPayload, 0xab);
  const icd::codec::EncodedSymbolView view(0x1234567890ULL, payload);

  // In-place encode into one recycled buffer: the transport fast path.
  icd::util::ByteWriter writer;
  auto start = Clock::now();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    icd::util::ByteWriter into(writer.take());
    icd::wire::encode_frame_into(into, view);
    bytes += into.size();
    writer = std::move(into);
  }
  const double encode_s = seconds_since(start);

  const auto frame = icd::wire::encode_frame(view);

  // In-place view decode (the one receive path).
  std::vector<std::uint64_t> scratch;
  start = Clock::now();
  std::size_t viewed = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    viewed += std::get<icd::codec::EncodedSymbolView>(
                  icd::wire::decode_frame(frame, scratch))
                  .payload.size();
  }
  const double view_s = seconds_since(start);

  const double encode_gbps = static_cast<double>(bytes) / encode_s / 1e9;
  const double view_gbps = static_cast<double>(viewed) / view_s / 1e9;
  std::printf("symbol frames (1 KB payload): encode %7.2f GB/s, "
              "view-decode %7.2f GB/s\n",
              encode_gbps, view_gbps);
  report.add("frame_encode_gbps", encode_gbps);
  report.add("frame_view_decode_gbps", view_gbps);

  icd::sketch::MinwiseSketch sketch(std::uint64_t{1} << 40, 128);
  for (std::uint64_t i = 0; i < 1000; ++i) sketch.update(i * 9176);
  const icd::wire::SketchMessage sketch_message{sketch};
  const std::size_t control_rounds = smoke ? 100 : 20000;
  start = Clock::now();
  bytes = 0;
  for (std::size_t i = 0; i < control_rounds; ++i) {
    bytes += icd::wire::encode_frame(sketch_message).size();
  }
  const double control_s = seconds_since(start);
  const double control_mbps = static_cast<double>(bytes) / control_s / 1e6;
  std::printf("sketch frames (128 minima):   encode %7.1f MB/s "
              "(%zu bytes/frame)\n",
              control_mbps, icd::wire::encode_frame(sketch_message).size());
  report.add("sketch_encode_mbps", control_mbps);
}

/// The direct-call baseline: what InformedSession did before the endpoint
/// redesign — symbols handed straight from one Peer to the other with no
/// serialization at all.
std::size_t direct_transfer(icd::core::Peer& sender,
                            icd::core::Peer& receiver, std::size_t target,
                            std::size_t max_transmissions,
                            std::uint64_t seed) {
  icd::util::Xoshiro256 rng(seed);
  const auto dist = icd::codec::DegreeDistribution::robust_soliton(
                        std::max<std::size_t>(sender.symbol_count(), 2))
                        .truncated(icd::codec::kDefaultRecodeDegreeLimit);
  icd::codec::RecodedSymbol scratch;
  std::size_t sent = 0;
  while (receiver.symbol_count() < target && !receiver.has_content() &&
         sent < max_transmissions) {
    sender.recode_into(scratch, dist.sample(rng), rng);
    receiver.receive_recoded(scratch);
    ++sent;
  }
  return sent;
}

void bench_endpoint_overhead(icd::bench::JsonReport& report, bool smoke) {
  icd::bench::print_header(
      "endpoint session vs direct calls (Recode, 250-block file)");

  constexpr std::size_t kBlocks = 250;
  constexpr std::size_t kBlockSize = 256;
  const auto content = random_content(kBlocks * kBlockSize, 99);
  const auto dist = icd::codec::DegreeDistribution::robust_soliton(kBlocks);
  const std::size_t max_transmissions = smoke ? 400 : 4000;

  for (const bool use_endpoints : {false, true}) {
    icd::core::OriginServer origin(content, kBlockSize, dist, 777);
    icd::core::Peer sender("sender", origin.parameters(), dist);
    icd::core::Peer receiver("receiver", origin.parameters(), dist);
    for (int i = 0; i < 300; ++i) sender.receive_encoded(origin.next());
    for (int i = 0; i < 100; ++i) receiver.receive_encoded(origin.next());

    const auto start = Clock::now();
    std::size_t sent = 0;
    if (use_endpoints) {
      icd::core::SessionOptions options;
      options.strategy = icd::overlay::Strategy::kRecode;
      icd::core::InformedSession session(sender, receiver, options);
      session.run(/*target_symbols=*/2 * kBlocks, max_transmissions);
      sent = session.stats().symbols_sent;
    } else {
      sent = direct_transfer(sender, receiver, 2 * kBlocks, max_transmissions,
                             0x5eed);
    }
    const double elapsed = seconds_since(start);
    const double rate = static_cast<double>(sent) / elapsed;
    std::printf("%-18s %6zu symbols in %7.3f ms  (%8.0f symbols/s)  "
                "decoded=%s\n",
                use_endpoints ? "endpoints (pipe)" : "direct calls", sent,
                elapsed * 1e3, rate, receiver.has_content() ? "yes" : "no");
    report.add(use_endpoints ? "endpoint_symbols_per_sec"
                             : "direct_symbols_per_sec",
               rate);
  }
}

void bench_send_path_allocations(icd::bench::JsonReport& report, bool smoke) {
  icd::bench::print_header(
      "steady-state allocations per symbol (endpoint send path, Recode)");

  constexpr std::size_t kBlocks = 250;
  constexpr std::size_t kBlockSize = 256;
  const auto content = random_content(kBlocks * kBlockSize, 31);
  const auto dist = icd::codec::DegreeDistribution::robust_soliton(kBlocks);
  icd::core::OriginServer origin(content, kBlockSize, dist, 777);
  icd::core::Peer sender_peer("sender", origin.parameters(), dist);
  icd::core::Peer receiver_peer("receiver", origin.parameters(), dist);
  for (int i = 0; i < 300; ++i) sender_peer.receive_encoded(origin.next());
  for (int i = 0; i < 100; ++i) receiver_peer.receive_encoded(origin.next());

  icd::wire::Pipe pipe(icd::core::kSessionPipeMtu);
  icd::core::SessionOptions options;
  options.strategy = icd::overlay::Strategy::kRecode;
  icd::core::SenderEndpoint sender(sender_peer, options, pipe.a());
  icd::core::ReceiverEndpoint receiver(receiver_peer, options, pipe.b());
  receiver.start();
  for (int i = 0; i < 16 && !receiver.transfer_started(); ++i) {
    sender.tick();
    receiver.tick();
  }

  // Warmup: grow every scratch vector / pool buffer / queue slot to its
  // steady-state capacity.
  const std::size_t warmup = smoke ? 50 : 400;
  const std::size_t measured = smoke ? 50 : 1000;
  for (std::size_t i = 0; i < warmup; ++i) {
    sender.send_symbol();
    receiver.tick();
  }

  std::size_t send_allocs = 0;
  for (std::size_t i = 0; i < measured; ++i) {
    const std::size_t before =
        g_allocations.load(std::memory_order_relaxed);
    sender.send_symbol();
    send_allocs += g_allocations.load(std::memory_order_relaxed) - before;
    receiver.tick();  // receive side: not part of the send-path figure
  }
  const double per_symbol =
      static_cast<double>(send_allocs) / static_cast<double>(measured);
  const auto& pool = pipe.a().pool().stats();
  std::printf("send path: %.3f allocations/symbol over %zu symbols "
              "(pool hit rate %.1f%%, %zu acquires)\n",
              per_symbol, measured, 100.0 * pool.hit_rate(), pool.acquires);
  report.add("allocs_per_symbol_send", per_symbol);
  report.add("pool_hit_rate", pool.hit_rate());
}

void bench_bytes_on_wire(icd::bench::JsonReport& report, bool smoke) {
  icd::bench::print_header(
      "bytes on wire per strategy (280/150 partial peers, 250 blocks)");
  std::printf("%12s %9s %9s %12s %9s %9s\n", "strategy", "ctrl B",
              "ctrl pkt", "data B", "symbols", "useful");

  constexpr std::size_t kBlocks = 250;
  constexpr std::size_t kBlockSize = 256;
  const auto content = random_content(kBlocks * kBlockSize, 7);
  const auto dist = icd::codec::DegreeDistribution::robust_soliton(kBlocks);

  for (const auto strategy : icd::overlay::kAllStrategies) {
    icd::core::OriginServer origin(content, kBlockSize, dist, 777);
    icd::core::Peer sender("sender", origin.parameters(), dist);
    icd::core::Peer receiver("receiver", origin.parameters(), dist);
    for (int i = 0; i < 280; ++i) sender.receive_encoded(origin.next());
    for (int i = 0; i < 150; ++i) receiver.receive_encoded(origin.next());

    icd::core::SessionOptions options;
    options.strategy = strategy;
    // The receiver needs ~350 more symbols for the 500 target; request with
    // the usual 25% decoding-overhead allowance.
    options.requested_symbols = 440;
    icd::core::InformedSession session(sender, receiver, options);
    session.run(/*target_symbols=*/500,
                /*max_transmissions=*/smoke ? 400 : 4000);

    const auto& stats = session.stats();
    const auto& tx = session.sender_transport().stats();
    const auto& rx = session.receiver_transport().stats();
    const std::string name(icd::overlay::strategy_name(strategy));
    std::printf("%12s %9zu %9zu %12zu %9zu %9zu\n", name.c_str(),
                stats.control_bytes, stats.control_packets,
                tx.data_bytes_sent + rx.data_bytes_sent, stats.symbols_sent,
                stats.symbols_useful);
    report.add(name + ".control_bytes", stats.control_bytes);
    report.add(name + ".control_packets", stats.control_packets);
    report.add(name + ".data_bytes",
               tx.data_bytes_sent + rx.data_bytes_sent);
    report.add(name + ".symbols_sent", stats.symbols_sent);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = icd::bench::smoke_mode(argc, argv);
  icd::bench::JsonReport report;
  report.add_string("bench", "wire");
  report.add_string("mode", smoke ? "smoke" : "full");
  bench_frame_throughput(report, smoke);
  bench_endpoint_overhead(report, smoke);
  bench_send_path_allocations(report, smoke);
  bench_bytes_on_wire(report, smoke);
  report.write("BENCH_wire.json");
  return 0;
}
