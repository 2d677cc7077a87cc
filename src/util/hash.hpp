#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// Hash functions shared by the Bloom filters, min-wise sketches and
/// approximate reconciliation trees.
///
/// All structures in the library hash 64-bit element keys. The paper notes
/// (Section 4) that keys may be assumed random because "the key space can
/// always be transformed by applying a (pseudo-)random hash function" — these
/// are those functions.
namespace icd::util {

/// Strong 64 -> 64 bit mixer (the splitmix64 finalizer). Bijective.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Seeded 64 -> 64 bit hash built from two rounds of mix64.
constexpr std::uint64_t hash64(std::uint64_t x, std::uint64_t seed) {
  return mix64(mix64(x + 0x9e3779b97f4a7c15ULL * (seed + 1)) ^ seed);
}

/// FNV-1a for byte strings; used for hashing symbol payloads in tests.
std::uint64_t fnv1a(std::span<const std::byte> bytes);

/// A family of k hash functions over a fixed range, generated by double
/// hashing: g_i(x) = h1(x) + i * h2(x) mod range (Kirsch & Mitzenmacher
/// 2006). This is the standard way to drive a k-hash Bloom filter from two
/// base hashes without losing the false-positive guarantee.
class DoubleHashFamily {
 public:
  /// `range` must be nonzero. `seed` selects the family member.
  DoubleHashFamily(std::size_t range, std::uint64_t seed);

  /// Value of the i-th hash function applied to `key`.
  std::size_t at(std::uint64_t key, std::size_t i) const {
    const std::uint64_t h1 = hash64(key, seed1_);
    const std::uint64_t h2 = hash64(key, seed2_) | 1;  // odd => full cycle
    return static_cast<std::size_t>((h1 + i * h2) % range_);
  }

  /// All of g_0(key), ..., g_{k-1}(key) appended to `out`.
  void fill(std::uint64_t key, std::size_t k,
            std::vector<std::size_t>& out) const;

 private:
  std::size_t range_;
  std::uint64_t seed1_;
  std::uint64_t seed2_;
};

/// Simple tabulation hashing (Zobrist): 3-independent and remarkably strong
/// in practice (Patrascu & Thorup 2012). Used where independence of hash
/// values matters for accuracy guarantees, e.g. ART leaf hashes.
class TabulationHash64 {
 public:
  explicit TabulationHash64(std::uint64_t seed);

  std::uint64_t operator()(std::uint64_t key) const {
    std::uint64_t h = 0;
    for (int i = 0; i < 8; ++i) {
      h ^= tables_[i][(key >> (8 * i)) & 0xff];
    }
    return h;
  }

 private:
  std::array<std::array<std::uint64_t, 256>, 8> tables_;
};

}  // namespace icd::util
