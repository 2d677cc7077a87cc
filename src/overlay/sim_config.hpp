#pragma once

#include <cstdint>

#include "codec/recoder.hpp"

/// Shared knobs for the Section 6 simulations.
///
/// Per-edge wire behavior (loss, reordering, MTU, and the simulated-time
/// delay/jitter/rate knobs) is not configured here but on a
/// wire::ChannelConfig — DeliveryOptions::link / link_config for the
/// delivery engine; see DESIGN.md, "Time and scheduling model".
namespace icd::overlay {

struct SimConfig {
  /// n: the number of symbols needed for recovery before decoding overhead
  /// (the paper's file is 23,968 blocks; the default here is laptop-scale —
  /// the curves depend on ratios, not absolute n).
  std::size_t n = 1000;

  /// "The experiments used the simplifying assumption of a constant
  /// decoding overhead of 7%": a receiver completes on reaching
  /// ceil(decode_overhead * n) distinct symbols.
  double decode_overhead = 1.07;

  /// Receiver Bloom filters at 8 bits per element, 5-6 hashes (~2% fp).
  double bloom_bits_per_element = 8.0;

  /// Min-wise sketch positions; 128 64-bit minima = one 1 KB packet.
  std::size_t sketch_permutations = 128;

  /// Recoding degree limit ("a degree limit of 50").
  std::size_t recode_degree_limit = codec::kDefaultRecodeDegreeLimit;

  /// Slack on the receiver's symbols-desired request ("the receiver may
  /// specify the number of symbols desired from each sender with
  /// appropriate allowances for decoding overhead"): a Recode/BF sender's
  /// restricted recoding domain is sized at (1 + allowance) * needed so the
  /// receiver never depends on recovering 100% of an LT-coded domain.
  double recode_domain_allowance = 0.25;

  /// Safety cap: a run aborts (incomplete) after
  /// max_transmission_factor * (symbols still needed) transmissions.
  std::size_t max_transmission_factor = 60;

  std::uint64_t seed = 0x1cdc0de5eedULL;

  /// Completion target in distinct symbols.
  std::size_t target() const {
    const auto t = static_cast<std::size_t>(
        decode_overhead * static_cast<double>(n) + 0.999999);
    return t;
  }
};

}  // namespace icd::overlay
