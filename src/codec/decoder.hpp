#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/peeling.hpp"
#include "codec/symbol.hpp"

/// Block-level fountain decoder: recovers the l source blocks from any
/// sufficiently large set of encoded symbols using the substitution rule.
/// "Some implementations are capable of efficiently reconstructing the file
/// having received only 3-5% more than the number of symbols in the original
/// file" — measure_decode_overhead() reports this code's actual figure.
namespace icd::codec {

class Decoder {
 public:
  /// Must be constructed with the same parameters and distribution as the
  /// encoder that produced the symbols.
  Decoder(CodeParameters params, DegreeDistribution dist);

  /// Feeds one encoded symbol. Returns true if it led to recovering at
  /// least one new source block.
  bool add_symbol(const EncodedSymbol& symbol);

  /// View variant for the zero-copy receive path: `payload` may borrow a
  /// transport frame or another decoder's storage; it is copied exactly
  /// once, into this decoder. Neighbor derivation reuses scratch vectors,
  /// so a warm decode loop performs no allocation beyond that copy.
  bool add_symbol(std::uint64_t id, std::span<const std::uint8_t> payload);

  std::size_t recovered_count() const { return peeler_.known_count(); }
  std::size_t received_count() const { return received_; }
  bool complete() const { return recovered_count() == params_.block_count; }

  /// Symbols that arrived fully redundant.
  std::size_t redundant_count() const { return peeler_.redundant_count(); }

  /// Solver op counters (equations, substitution incidences, recoveries).
  const DecoderStats& stats() const { return peeler_.stats(); }

  /// Recovered source blocks in index order; only valid when complete().
  std::vector<std::vector<std::uint8_t>> blocks() const;

  const CodeParameters& parameters() const { return params_; }

  /// Heap bytes pinned: the peeler plus the derivation scratch.
  std::size_t memory_bytes() const {
    return peeler_.memory_bytes() +
           neighbor_scratch_.capacity() * sizeof(std::uint32_t) +
           pick_scratch_.capacity() * sizeof(std::uint64_t);
  }

  /// Releases solver-only storage (buffered equations, waiting index)
  /// once no further symbols will arrive. Recovered blocks — blocks()
  /// and complete() — survive. Idempotent.
  void release_solver_state() {
    peeler_.release_solver_state();
    neighbor_scratch_.clear();
    neighbor_scratch_.shrink_to_fit();
    pick_scratch_.clear();
    pick_scratch_.shrink_to_fit();
  }

 private:
  CodeParameters params_;
  DegreeDistribution dist_;
  PeelingDecoder<std::uint32_t> peeler_;
  std::size_t received_ = 0;
  // add_symbol scratch (neighbor derivation).
  std::vector<std::uint32_t> neighbor_scratch_;
  std::vector<std::uint64_t> pick_scratch_;
};

/// Runs a fresh encode/decode session over random content of
/// `block_count` blocks of `block_size` bytes and returns the decoding
/// overhead (symbols consumed / block_count, >= 1).
double measure_decode_overhead(std::uint32_t block_count,
                               std::size_t block_size,
                               const DegreeDistribution& dist,
                               std::uint64_t seed);

/// "The experiments used the simplifying assumption of a constant decoding
/// overhead of 7%" (Section 6).
inline constexpr double kDecodeOverhead = 1.07;

/// Distinct symbols a receiver of `n` blocks needs under that assumption,
/// ceil(kDecodeOverhead * n): the completion rule of the Section 6
/// simulations, bench_latency and the swarm runs. The 0.999999 slack rounds
/// up, but does not turn the binary representation error of a whole
/// product (kDecodeOverhead * 1900 is a hair above 2033) into an extra
/// symbol.
constexpr std::size_t decoding_target(std::size_t n) {
  return static_cast<std::size_t>(kDecodeOverhead * static_cast<double>(n) +
                                  0.999999);
}

}  // namespace icd::codec
