#include "util/bitvector.hpp"

#include <stdexcept>

namespace icd::util {

void BitVector::load_words(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < words_.size() * 8) {
    throw std::invalid_argument("BitVector::load_words: truncated input");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = 0;
    for (int i = 0; i < 8; ++i) {
      word |= static_cast<std::uint64_t>(bytes[w * 8 + i]) << (8 * i);
    }
    words_[w] = word;
  }
}

}  // namespace icd::util
