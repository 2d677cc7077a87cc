#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.hpp"

/// Linear permutations pi(x) = (a*x + b) mod p over a prime-sized universe.
///
/// Section 4 of the paper: "In practice, truly random permutations cannot be
/// used, as the storage requirements are impractical. Instead, we may use
/// simple permutations, such as pi(x) = ax + b (mod |U|) for randomly chosen
/// a and b, without dramatically affecting overall performance."
namespace icd::util {

class LinearPermutation {
 public:
  /// Constructs pi(x) = (a*x + b) mod modulus. `modulus` must be prime and
  /// `a` must satisfy 1 <= a < modulus; 0 <= b < modulus.
  LinearPermutation(std::uint64_t a, std::uint64_t b, std::uint64_t modulus);

  /// Draws a uniformly random member of the family over a universe of at
  /// least `universe_size` (the modulus is the smallest prime >= the size).
  static LinearPermutation random(std::uint64_t universe_size,
                                  Xoshiro256& rng);

  std::uint64_t operator()(std::uint64_t x) const {
    return (mul_a(x % modulus_) + b_) % modulus_;
  }

  /// Inverse permutation: pi^{-1}(y) = (y - b) * a^{-1} mod p.
  std::uint64_t inverse(std::uint64_t y) const;

  std::uint64_t a() const { return a_; }
  std::uint64_t b() const { return b_; }
  std::uint64_t modulus() const { return modulus_; }

 private:
  std::uint64_t mul_a(std::uint64_t x) const {
    return static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(a_) * x % modulus_);
  }

  std::uint64_t a_;
  std::uint64_t b_;
  std::uint64_t modulus_;
  std::uint64_t a_inverse_;
};

/// A fixed, seed-derived family of linear permutations. Peers that agree on
/// (seed, count, universe size) derive identical permutations — this is how
/// the paper's requirement that "peers must agree on these permutations in
/// advance" is met without any communication.
std::vector<LinearPermutation> make_permutation_family(
    std::uint64_t universe_size, std::size_t count, std::uint64_t seed);

/// Process-wide cache over make_permutation_family, keyed by
/// (universe_size, count, seed). Families are immutable once drawn and the
/// key triple fully determines the draw, so every sketch over the same
/// universe can share one family. This matters on the handshake receive
/// path: MinwiseSketch::deserialize constructs a sketch per received
/// summary, and rebuilding the family there costs a next_prime search plus
/// `count` modular inversions per packet. Thread-safe; entries live for the
/// process, so only locally constructed sketches may add one (distinct key
/// triples are few — one per universe geometry); decoding looks families
/// up with find_permutation_family instead.
std::shared_ptr<const std::vector<LinearPermutation>>
shared_permutation_family(std::uint64_t universe_size, std::size_t count,
                          std::uint64_t seed);

/// The cached family for the key triple, or null if no call to
/// shared_permutation_family has drawn it. Never draws or inserts.
std::shared_ptr<const std::vector<LinearPermutation>>
find_permutation_family(std::uint64_t universe_size, std::size_t count,
                        std::uint64_t seed);

/// Number of families in the process-wide cache.
std::size_t permutation_family_cache_size();

}  // namespace icd::util
