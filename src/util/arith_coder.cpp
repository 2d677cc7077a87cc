#include "util/arith_coder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace icd::util {

namespace {

// 32-bit range coder state with 16-bit probabilities.
constexpr std::uint32_t kTop = 0xFFFFFFFFu;
constexpr std::uint32_t kProbBits = 16;
constexpr std::uint32_t kProbOne = 1u << kProbBits;

std::uint32_t clamp_probability(double p1) {
  const double clamped = std::clamp(p1, 1.0 / kProbOne, 1.0 - 1.0 / kProbOne);
  const auto scaled = static_cast<std::uint32_t>(clamped * kProbOne);
  return std::clamp<std::uint32_t>(scaled, 1, kProbOne - 1);
}

}  // namespace

double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

std::vector<std::uint8_t> arith_encode_bits(const std::vector<bool>& bits,
                                            double p1) {
  const std::uint32_t prob1 = clamp_probability(p1);
  std::vector<std::uint8_t> out;
  std::uint64_t low = 0;  // 33+ bits so additions expose the carry
  std::uint32_t range = kTop;
  const auto propagate_carry = [&]() {
    // low overflowed 32 bits: +1 ripples through the emitted bytes.
    std::size_t i = out.size();
    while (i > 0 && out[i - 1] == 0xff) {
      out[--i] = 0;
    }
    if (i > 0) ++out[i - 1];
    low &= 0xFFFFFFFFull;
  };
  for (const bool bit : bits) {
    // Split the range: [low, low+split] encodes 0, remainder encodes 1.
    const std::uint32_t split = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(range) * (kProbOne - prob1)) >> kProbBits);
    if (bit) {
      low += split + 1;
      range -= split + 1;
      if (low > 0xFFFFFFFFull) propagate_carry();
    } else {
      range = split;
    }
    // Renormalize: emit leading bytes once they are settled.
    while (range < (1u << 24)) {
      out.push_back(static_cast<std::uint8_t>(low >> 24));
      low = (low << 8) & 0xFFFFFFFFull;
      range = (range << 8) | 0xff;
    }
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(low >> 24));
    low = (low << 8) & 0xFFFFFFFFull;
  }
  return out;
}

std::vector<bool> arith_decode_bits(const std::vector<std::uint8_t>& bytes,
                                    std::size_t count, double p1) {
  const std::uint32_t prob1 = clamp_probability(p1);
  std::vector<bool> bits;
  std::uint32_t low = 0;
  std::uint32_t range = kTop;
  std::uint32_t code = 0;
  std::size_t pos = 0;
  // The encoder's 4-byte flush means a valid stream never asks for a byte
  // past its end; a request for one is a count the bytes cannot hold. So
  // decoding costs at most a bounded number of bits per input byte,
  // whatever `count` claims.
  const auto next_byte = [&]() -> std::uint8_t {
    if (pos >= bytes.size()) {
      throw std::invalid_argument("arith_decode_bits: count exceeds stream");
    }
    return bytes[pos++];
  };
  for (int i = 0; i < 4; ++i) code = (code << 8) | next_byte();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t split = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(range) * (kProbOne - prob1)) >> kProbBits);
    const bool bit = (code - low) > split;
    if (bit) {
      low += split + 1;
      range -= split + 1;
    } else {
      range = split;
    }
    bits.push_back(bit);
    while (range < (1u << 24)) {
      code = (code << 8) | next_byte();
      low <<= 8;
      range = (range << 8) | 0xff;
    }
  }
  return bits;
}

}  // namespace icd::util
