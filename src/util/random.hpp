#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

/// Deterministic pseudo-random number generation substrate.
///
/// Everything in the library that needs randomness (hash-family selection,
/// encoder neighbor sets, workload generation) draws from these generators so
/// that experiments are reproducible from a single 64-bit seed.
namespace icd::util {

/// SplitMix64 — tiny, fast seed expander (Steele, Lea, Flood 2014).
///
/// Used to derive well-distributed state for other generators from an
/// arbitrary (possibly low-entropy) user seed.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value in the sequence.
  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman, Vigna) — the library's workhorse generator.
///
/// Satisfies std::uniform_random_bit_generator so it can be used with the
/// standard <random> distributions as well.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection
  /// method. `bound` must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool next_bool(double p) { return next_double() < p; }

  /// Equivalent to 2^128 calls of operator(); used to split one seed into
  /// non-overlapping subsequences for independent components.
  void jump();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Robert Floyd's algorithm: a uniform random k-subset of {0, ..., n-1},
/// returned in the (random) order produced by the algorithm. O(k) expected
/// time and space. Requires k <= n.
std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                      std::size_t k,
                                                      Xoshiro256& rng);

/// In-place variant, the one implementation: reuses `out`'s capacity, so a
/// warm `out` allocates nothing. A draw of k <= 64 (the recode degree cap
/// and most of the soliton mass) tests membership by linear scan; a larger
/// one keeps a hash table in `out`'s storage past the k picks, whose
/// capacity therefore reaches k plus the power of two at or above 2k.
void sample_without_replacement_into(std::vector<std::uint64_t>& out,
                                     std::uint64_t n, std::size_t k,
                                     Xoshiro256& rng);

/// Fisher-Yates shuffle of `values` in place.
template <typename T>
void shuffle(std::vector<T>& values, Xoshiro256& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    using std::swap;
    swap(values[i - 1], values[j]);
  }
}

}  // namespace icd::util
