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

/// Remainders modulo one fixed 64-bit modulus without a divide
/// instruction: Möller and Granlund's 2-by-1 remainder ("Improved division
/// by invariant integers", 2011) against a reciprocal computed once per
/// modulus. A modulus below 2^63 is normalized by a left shift. Both
/// corrections are masks, not branches: their outcomes depend on the data,
/// and as branches they mispredict often enough to lose to `div`.
class ModularReducer {
 public:
  /// `modulus` must be at least 1.
  explicit ModularReducer(std::uint64_t modulus);

  std::uint64_t modulus() const { return modulus_; }

  /// (hi * 2^64 + lo) mod modulus, for hi below the modulus.
  std::uint64_t reduce(std::uint64_t hi, std::uint64_t lo) const {
    // Shift the dividend like the divisor, unless it need not be: shifts
    // by a register cost several micro-ops each on x86.
    if (shift_ == 0) return remainder(hi, lo);
    return remainder((hi << shift_) | (lo >> (64 - shift_)), lo << shift_) >>
           shift_;
  }

  /// x mod modulus, for any 64-bit x.
  std::uint64_t reduce(std::uint64_t x) const {
    // A modulus of 2^63 or more exceeds x / 2, so one subtraction does.
    if (shift_ == 0) return x - (modulus_ & mask_if(x >= modulus_));
    return reduce(0, x);
  }

  /// a * x mod modulus, for a and x below the modulus.
  std::uint64_t multiply(std::uint64_t a, std::uint64_t x) const {
    const unsigned __int128 product = static_cast<unsigned __int128>(a) * x;
    return reduce(static_cast<std::uint64_t>(product >> 64),
                  static_cast<std::uint64_t>(product));
  }

 private:
  static std::uint64_t mask_if(bool condition) {
    return -static_cast<std::uint64_t>(condition);
  }

  /// (u1 * 2^64 + u0) mod divisor_, for u1 < divisor_.
  std::uint64_t remainder(std::uint64_t u1, std::uint64_t u0) const {
    const unsigned __int128 q =
        static_cast<unsigned __int128>(reciprocal_) * u1 +
        ((static_cast<unsigned __int128>(u1 + 1) << 64) | u0);
    const auto q0 = static_cast<std::uint64_t>(q);
    std::uint64_t r = u0 - static_cast<std::uint64_t>(q >> 64) * divisor_;
    r += divisor_ & mask_if(r > q0);  // the quotient estimate was one high
    r -= divisor_ & mask_if(r >= divisor_);  // ... or one low
    return r;
  }

  std::uint64_t modulus_;
  unsigned shift_;            // leading zero bits of modulus_
  std::uint64_t divisor_;     // modulus_ << shift_, top bit set
  std::uint64_t reciprocal_;  // floor((2^128 - 1) / divisor_) - 2^64
};

class LinearPermutation {
 public:
  /// Constructs pi(x) = (a*x + b) mod modulus. `modulus` must be prime and
  /// `a` must satisfy 1 <= a < modulus; 0 <= b < modulus.
  LinearPermutation(std::uint64_t a, std::uint64_t b, std::uint64_t modulus);
  /// The same, reusing a reducer for the modulus (a family shares one).
  LinearPermutation(std::uint64_t a, std::uint64_t b,
                    const ModularReducer& modulus);

  /// Draws a uniformly random member of the family over a universe of at
  /// least `universe_size` (the modulus is the smallest prime >= the size).
  static LinearPermutation random(std::uint64_t universe_size,
                                  Xoshiro256& rng);

  /// (a * (x mod p) mod p + b) mod p, with the inner sum wrapping at
  /// 2^64 before the last reduction, as the `%` formula's does.
  std::uint64_t operator()(std::uint64_t x) const {
    return apply(modulus_, modulus_.reduce(x));
  }

  /// pi(x) for x already below the modulus, reduced by `modulus`, a copy of
  /// reducer(): a family shares one modulus, so its sketch update reduces
  /// each key once and keeps one reducer in registers for every member.
  std::uint64_t apply(const ModularReducer& modulus, std::uint64_t x) const {
    return modulus.reduce(modulus.multiply(a_, x) + b_);
  }

  /// Inverse permutation: pi^{-1}(y) = (y - b) * a^{-1} mod p.
  std::uint64_t inverse(std::uint64_t y) const;

  std::uint64_t a() const { return a_; }
  std::uint64_t b() const { return b_; }
  std::uint64_t modulus() const { return modulus_.modulus(); }
  const ModularReducer& reducer() const { return modulus_; }

 private:
  std::uint64_t a_;
  std::uint64_t b_;
  ModularReducer modulus_;
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
