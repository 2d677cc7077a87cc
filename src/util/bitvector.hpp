#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// Compact bit array backing the Bloom filter.
namespace icd::util {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  bool operator==(const BitVector& other) const = default;

  /// Raw 64-bit words, little-endian bit order within each word.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Rebuilds a `bits`-bit vector from its words, 8 little-endian bytes
  /// each (callers strip their own headers first).
  static BitVector from_bytes(std::span<const std::uint8_t> bytes,
                              std::size_t bits);

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace icd::util
