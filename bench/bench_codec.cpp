// E9 (Section 6.1 coding parameters): decoding overhead and degree
// statistics of the sparse parity-check codec, plus encode/decode and XOR
// micro-benchmarks.
//
// Paper: "The degree distribution used had an average degree of 11 for the
// encoded symbols and average decoding overhead of 6.8%" at l = 23,968
// blocks (32 MB in 1400-byte blocks).
//
// Emits BENCH_codec.json (flat key -> number) so future PRs can track the
// perf trajectory. --smoke shrinks the tables and skips the Google
// Benchmark loops so CI can exercise the binary cheaply.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/block_source.hpp"
#include "codec/decoder.hpp"
#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/inactivation.hpp"
#include "codec/peeling.hpp"
#include "codec/recoder.hpp"
#include "codec/solver_reference.hpp"
#include "core/peer.hpp"
#include "sketch/minwise.hpp"
#include "util/permutation.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Byte-at-a-time reference for the word-wise xor_bytes kernel; kept here
/// (and in the parity tests) as the semantic ground truth.
void xor_bytes_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void print_xor_throughput(bench::JsonReport& report, bool smoke) {
  std::printf("=== XOR kernel: word-wise vs byte-wise (1400-byte "
              "payloads) ===\n");
  constexpr std::size_t kSize = 1400;  // the paper's block size
  const std::size_t rounds = smoke ? 2000 : 2000000;
  std::vector<std::uint8_t> dst(kSize, 0x5a);
  std::vector<std::uint8_t> src(kSize, 0xa5);

  auto start = Clock::now();
  for (std::size_t i = 0; i < rounds; ++i) {
    codec::xor_bytes(dst.data(), src.data(), kSize);
    benchmark::DoNotOptimize(dst.data());
  }
  const double word_s = seconds_since(start);

  start = Clock::now();
  for (std::size_t i = 0; i < rounds; ++i) {
    xor_bytes_scalar(dst.data(), src.data(), kSize);
    benchmark::DoNotOptimize(dst.data());
  }
  const double scalar_s = seconds_since(start);

  const double bytes = static_cast<double>(rounds) * kSize;
  const double word_gbps = bytes / word_s / 1e9;
  const double scalar_gbps = bytes / scalar_s / 1e9;
  std::printf("word-wise %7.2f GB/s, byte-wise %7.2f GB/s (%.2fx)\n\n",
              word_gbps, scalar_gbps, word_gbps / scalar_gbps);
  report.add("xor_wordwise_gbps", word_gbps);
  report.add("xor_scalar_gbps", scalar_gbps);
}

void print_overhead_table(bench::JsonReport& report, bool smoke) {
  std::printf("\n=== Section 6.1: codec degree and decoding overhead ===\n");
  std::printf("%10s %12s %14s %12s\n", "blocks", "avg degree",
              "overhead (avg)", "paper");
  std::vector<std::size_t> sweep = {500u, 1000u, 2000u, 5000u, 10000u,
                                    23968u};
  if (smoke) sweep = {500u};
  for (const std::size_t blocks : sweep) {
    const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
    double overhead = 0;
    const int trials = smoke ? 1 : (blocks > 5000 ? 2 : 5);
    for (int t = 0; t < trials; ++t) {
      overhead += codec::measure_decode_overhead(
          static_cast<std::uint32_t>(blocks), 4, dist,
          0xc0dec + 7919 * static_cast<std::uint64_t>(t));
    }
    overhead /= trials;
    std::printf("%10zu %12.2f %13.1f%% %12s\n", blocks, dist.mean(),
                100.0 * (overhead - 1.0),
                blocks == 23968u ? "deg 11, 6.8%" : "");
    report.add("decode_overhead_" + std::to_string(blocks), overhead - 1.0);
  }
  std::printf("\n");
}

void print_inactivation_table(bool smoke) {
  std::printf("=== Extension: peeling vs inactivation decoding overhead "
              "===\n");
  std::printf("%10s %14s %16s\n", "blocks", "peeling", "inactivation");
  std::vector<std::size_t> sweep = {500u, 1000u, 2000u};
  if (smoke) sweep = {500u};
  for (const std::size_t blocks : sweep) {
    const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
    double peel = 0, inact = 0;
    const int trials = smoke ? 1 : 3;
    for (int t = 0; t < trials; ++t) {
      peel += codec::measure_decode_overhead(
          static_cast<std::uint32_t>(blocks), 4, dist, 0xabc + t);
      inact += codec::measure_inactivation_overhead(
          static_cast<std::uint32_t>(blocks), 4, dist, 0xabc + t);
    }
    std::printf("%10zu %13.1f%% %15.2f%%\n", blocks,
                100.0 * (peel / trials - 1.0),
                100.0 * (inact / trials - 1.0));
  }
  std::printf("\n");
}

codec::BlockSource make_source(std::size_t blocks, std::size_t block_size) {
  util::Xoshiro256 rng(1);
  std::vector<std::uint8_t> content(blocks * block_size);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng());
  return codec::BlockSource(content, block_size);
}

/// Timed by hand (not Google Benchmark) so the figure lands in the JSON
/// report: full-file decode rate, the XOR-bound consumer of the word-wise
/// kernel.
void print_decode_rate(bench::JsonReport& report, bool smoke) {
  const std::size_t blocks = 2000;
  const std::size_t block_size = smoke ? 16 : 256;
  const auto source = make_source(blocks, block_size);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 8);
  std::vector<codec::EncodedSymbol> symbols;
  for (std::size_t i = 0; i < 2 * blocks; ++i) {
    symbols.push_back(encoder.next());
  }
  const int reps = smoke ? 1 : 5;
  const auto start = Clock::now();
  std::size_t consumed = 0;
  for (int r = 0; r < reps; ++r) {
    codec::Decoder decoder(encoder.parameters(), dist);
    std::size_t i = 0;
    while (!decoder.complete() && i < symbols.size()) {
      decoder.add_symbol(symbols[i].id, symbols[i].payload);
      ++i;
    }
    consumed += i;
  }
  const double elapsed = seconds_since(start);
  const double mbps = static_cast<double>(consumed) *
                      static_cast<double>(block_size) / elapsed / 1e6;
  std::printf("=== full-file decode (%zu blocks x %zu B): %.1f MB/s of "
              "symbol payload ===\n\n",
              blocks, block_size, mbps);
  report.add("decode_payload_mbps", mbps);
}

/// Handshake receive path: every summary bundle that arrives is decoded
/// with MinwiseSketch::deserialize, which constructs a sketch over the
/// agreed universe. The permutation family behind that sketch is immutable
/// and fully determined by (universe, count, seed), so decode cost should
/// be the minima copy — not a per-packet family rebuild (next_prime search
/// plus 128 modular inversions). This lane times both and reports the
/// speedup the shared_permutation_family cache buys; CI gates on it.
void print_sketch_decode(bench::JsonReport& report, bool smoke) {
  constexpr std::uint64_t kUniverse = 1u << 20;
  constexpr std::size_t kPermutations =
      sketch::MinwiseSketch::kDefaultPermutations;
  constexpr std::uint64_t kSeed = sketch::MinwiseSketch::kSharedSeed;
  sketch::MinwiseSketch sketch(kUniverse, kPermutations, kSeed);
  util::Xoshiro256 rng(42);
  for (int i = 0; i < 400; ++i) sketch.update(rng.next_below(kUniverse));
  const auto wire = sketch.serialize();

  const std::size_t decodes = smoke ? 200 : 5000;
  // Warm the cache so the timed loop measures the steady state every
  // handshake after the first sees.
  (void)sketch::MinwiseSketch::deserialize(wire);
  auto start = Clock::now();
  for (std::size_t i = 0; i < decodes; ++i) {
    const auto decoded = sketch::MinwiseSketch::deserialize(wire);
    benchmark::DoNotOptimize(decoded.minima().data());
  }
  const double cached_s = seconds_since(start);

  // The pre-cache cost: what each decode used to pay on top, rebuilding the
  // identical family from scratch.
  const std::size_t rebuilds = smoke ? 50 : 500;
  start = Clock::now();
  for (std::size_t i = 0; i < rebuilds; ++i) {
    const auto family =
        util::make_permutation_family(kUniverse, kPermutations, kSeed);
    benchmark::DoNotOptimize(family.data());
  }
  const double rebuild_s = seconds_since(start);

  const double cached_us = cached_s / decodes * 1e6;
  const double rebuild_us = rebuild_s / rebuilds * 1e6;
  const double speedup = (rebuild_us + cached_us) / cached_us;
  std::printf("=== handshake sketch decode: %.2f us cached vs %.2f us with "
              "per-packet family rebuild (%.1fx) ===\n\n",
              cached_us, rebuild_us + cached_us, speedup);
  report.add("sketch_decode_cached_us", cached_us);
  report.add("sketch_family_rebuild_us", rebuild_us);
  report.add("sketch_decode_cache_speedup", speedup);
}

/// Peeling data plane: feed identical pre-derived equation streams through
/// the flat-arena PeelingDecoder and the list-based reference, reporting
/// substitution throughput (incidences/s — the O(1) unit of the
/// counter/accumulator core) and the speedup. CI gates the throughput
/// floor.
void print_substitution_throughput(bench::JsonReport& report, bool smoke) {
  const std::size_t blocks = smoke ? 2000 : 20000;
  constexpr std::size_t kBlockSize = 8;  // keep XOR cost off the lane
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  const auto source = make_source(blocks, kBlockSize);
  codec::Encoder encoder(source, dist, 21);
  std::vector<codec::EncodedSymbol> symbols;
  std::vector<std::vector<std::uint32_t>> neighbors;
  for (std::size_t i = 0; i < 2 * blocks; ++i) {
    symbols.push_back(encoder.next());
    neighbors.push_back(
        codec::symbol_neighbors(encoder.parameters(), dist, symbols.back().id));
  }

  auto start = Clock::now();
  codec::PeelingDecoder<std::uint32_t> solver;
  std::size_t consumed = 0;
  while (solver.known_count() < blocks && consumed < symbols.size()) {
    solver.add_equation(
        std::span<const std::uint32_t>(neighbors[consumed]),
        std::span<const std::uint8_t>(symbols[consumed].payload));
    ++consumed;
  }
  const double solver_s = seconds_since(start);
  const double incidences =
      static_cast<double>(solver.stats().substitutions);

  start = Clock::now();
  codec::ReferencePeelingDecoder<std::uint32_t> reference;
  std::size_t ref_consumed = 0;
  while (reference.known_count() < blocks && ref_consumed < symbols.size()) {
    reference.add_equation(
        std::span<const std::uint32_t>(neighbors[ref_consumed]),
        std::span<const std::uint8_t>(symbols[ref_consumed].payload));
    ++ref_consumed;
  }
  const double reference_s = seconds_since(start);

  const double per_s = incidences / solver_s;
  std::printf("=== peeling substitution (%zu blocks): %.1f M incidences/s "
              "flat-arena vs %.1f M list-based (%.2fx) ===\n\n",
              blocks, per_s / 1e6, incidences / reference_s / 1e6,
              reference_s / solver_s);
  report.add("substitution_incidences_per_s", per_s);
  report.add("substitution_speedup_vs_reference", reference_s / solver_s);
}

/// Inactivation solve phase at a forced residual of u unknowns: constant
/// degree 3 never peels from cold (every recovery comes out of the GF(2)
/// elimination), and try_solve runs after every arrival past l — the
/// endpoint-driven pattern. Only the try_solve calls are timed, isolating
/// incremental elimination-state maintenance vs the reference's
/// from-scratch rebuild. CI gates solve_incremental_speedup.
void print_solve_lanes(bench::JsonReport& report, bool smoke) {
  std::printf("=== inactivation solve phase: incremental vs scratch "
              "elimination (constant degree 3) ===\n");
  std::printf("%8s %16s %14s %10s\n", "u", "incremental ms", "scratch ms",
              "speedup");
  std::vector<std::size_t> sweep = {64u, 256u, 1024u};
  if (smoke) sweep = {64u};
  double gated_speedup = 0;
  for (const std::size_t u : sweep) {
    const int trials = u >= 1024 ? 1 : 3;
    double incremental_s = 0, scratch_s = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const auto dist = codec::DegreeDistribution::constant(3);
      util::Xoshiro256 rng(0x501 + 131 * static_cast<std::uint64_t>(trial));
      std::vector<std::uint8_t> content(u * 8);
      for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
      const codec::BlockSource source(content, 8);
      codec::Encoder encoder(source, dist,
                             0xE11 + static_cast<std::uint64_t>(trial));
      codec::InactivationDecoder incremental(encoder.parameters(), dist);
      codec::ReferenceInactivationDecoder scratch(encoder.parameters(), dist);
      const std::size_t max_symbols = 40 * u + 1000;
      while (!incremental.complete() &&
             incremental.received_count() < max_symbols) {
        const auto symbol = encoder.next();
        incremental.add_symbol(symbol);
        scratch.add_symbol(symbol);
        if (incremental.received_count() < u) continue;
        auto start = Clock::now();
        incremental.try_solve();
        incremental_s += seconds_since(start);
        start = Clock::now();
        scratch.try_solve();
        scratch_s += seconds_since(start);
      }
      if (!incremental.complete() || !scratch.complete()) {
        std::fprintf(stderr, "solve lane u=%zu trial %d did not converge\n",
                     u, trial);
        std::exit(1);
      }
    }
    const double speedup = scratch_s / incremental_s;
    std::printf("%8zu %16.3f %14.3f %9.1fx\n", u,
                incremental_s * 1e3 / trials, scratch_s * 1e3 / trials,
                speedup);
    report.add("solve_incremental_ms_u" + std::to_string(u),
               incremental_s * 1e3 / trials);
    report.add("solve_scratch_ms_u" + std::to_string(u),
               scratch_s * 1e3 / trials);
    report.add("solve_speedup_u" + std::to_string(u), speedup);
    if (u == sweep.front()) gated_speedup = speedup;
  }
  // The CI-gated lane: measured at the u every mode sweeps.
  report.add("solve_incremental_speedup", gated_speedup);
  std::printf("\n");
}

void BM_Encode(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const auto source = make_source(blocks, 1400);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 7);
  codec::EncodedSymbol symbol;
  std::uint64_t id = 0;
  for (auto _ : state) {
    encoder.encode_into(symbol, id++);
    benchmark::DoNotOptimize(symbol.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_Encode)->Arg(1000)->Arg(10000);

void BM_DecodeFullFile(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const auto source = make_source(blocks, 64);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 8);
  // Pre-generate enough symbols outside the timed loop.
  std::vector<codec::EncodedSymbol> symbols;
  for (std::size_t i = 0; i < 2 * blocks; ++i) symbols.push_back(encoder.next());
  for (auto _ : state) {
    codec::Decoder decoder(encoder.parameters(), dist);
    std::size_t i = 0;
    while (!decoder.complete() && i < symbols.size()) {
      decoder.add_symbol(symbols[i++]);
    }
    benchmark::DoNotOptimize(decoder.recovered_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(blocks));
}
BENCHMARK(BM_DecodeFullFile)->Arg(1000)->Arg(5000);

/// The engine's Recode/BF send: a sender holding 600 symbols recodes over
/// the 200 slots a handshake left it (the Bloom difference cut to the
/// receiver's request, ordered by id), in place.
void BM_RecodeGenerate(benchmark::State& state) {
  const auto source = make_source(1000, 64);
  const auto dist = codec::DegreeDistribution::robust_soliton(1000);
  codec::Encoder encoder(source, dist, 9);
  core::Peer sender("sender", encoder.parameters(), dist);
  for (int i = 0; i < 600; ++i) sender.receive_encoded(encoder.next());
  std::vector<std::uint32_t> slots;
  for (std::uint32_t k = 0; k < sender.symbol_count(); k += 3) {
    slots.push_back(k);
  }
  const auto& ids = sender.symbol_ids();
  std::sort(slots.begin(), slots.end(),
            [&ids](std::uint32_t a, std::uint32_t b) { return ids[a] < ids[b]; });
  const auto recode_dist = codec::DegreeDistribution::robust_soliton(
                               slots.size())
                               .truncated(codec::kDefaultRecodeDegreeLimit);
  codec::RecodedSymbol out;
  util::Xoshiro256 rng(10);
  for (auto _ : state) {
    sender.recode_slots_into(out, slots, recode_dist.sample(rng), rng);
    benchmark::DoNotOptimize(out.payload.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RecodeGenerate);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = icd::bench::smoke_mode(argc, argv);
  // Strip --smoke before Google Benchmark sees the args.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) != "--smoke") args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());

  icd::bench::JsonReport report;
  report.add_string("bench", "codec");
  report.add_string("mode", smoke ? "smoke" : "full");
  print_xor_throughput(report, smoke);
  print_overhead_table(report, smoke);
  print_inactivation_table(smoke);
  print_decode_rate(report, smoke);
  print_sketch_decode(report, smoke);
  print_substitution_throughput(report, smoke);
  print_solve_lanes(report, smoke);
  report.write("BENCH_codec.json");

  if (!smoke) {
    benchmark::Initialize(&bench_argc, args.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
