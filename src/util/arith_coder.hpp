#pragma once

#include <cstdint>
#include <vector>

/// Static binary arithmetic coder.
///
/// Encodes a bit sequence whose bits are i.i.d. one with probability `p1`
/// to within a fraction of a percent of the entropy bound
/// H(p1) = -p1 log2 p1 - (1-p1) log2 (1-p1) bits per input bit. Used by the
/// compressed Bloom filters: a sparse filter (low fill ratio) compresses
/// well below m bits on the wire.
namespace icd::util {

/// Entropy of a Bernoulli(p) bit in bits; 0 at p in {0, 1}.
double binary_entropy(double p);

/// Encodes `bits` under a Bernoulli(p1) model. p1 is clamped away from
/// 0 and 1 so that unlikely symbols remain encodable.
std::vector<std::uint8_t> arith_encode_bits(const std::vector<bool>& bits,
                                            double p1);

/// Decodes exactly `count` bits from an arith_encode_bits() stream
/// produced with the same p1. Throws std::invalid_argument when the stream
/// ends before `count` bits are decoded.
std::vector<bool> arith_decode_bits(const std::vector<std::uint8_t>& bytes,
                                    std::size_t count, double p1);

}  // namespace icd::util
