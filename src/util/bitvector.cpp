#include "util/bitvector.hpp"

#include <stdexcept>

namespace icd::util {

BitVector BitVector::from_bytes(std::span<const std::uint8_t> bytes,
                                std::size_t bits) {
  BitVector result(bits);
  if (bytes.size() < result.words_.size() * 8) {
    throw std::invalid_argument("BitVector::from_bytes: truncated input");
  }
  for (std::size_t w = 0; w < result.words_.size(); ++w) {
    std::uint64_t word = 0;
    for (int i = 0; i < 8; ++i) {
      word |= static_cast<std::uint64_t>(bytes[w * 8 + i]) << (8 * i);
    }
    result.words_[w] = word;
  }
  return result;
}

}  // namespace icd::util
