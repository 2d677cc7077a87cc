#include "util/permutation.hpp"

#include <bit>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "util/prime.hpp"

namespace icd::util {

ModularReducer::ModularReducer(std::uint64_t modulus) : modulus_(modulus) {
  if (modulus == 0) {
    throw std::invalid_argument("ModularReducer: modulus must be >= 1");
  }
  shift_ = static_cast<unsigned>(std::countl_zero(modulus));
  divisor_ = modulus << shift_;
  // floor((2^128 - 1) / d) - 2^64 = (~d * 2^64 + 2^64 - 1) / d, which fits
  // 64 bits because ~d < d.
  reciprocal_ = static_cast<std::uint64_t>(
      ((static_cast<unsigned __int128>(~divisor_) << 64) | ~std::uint64_t{0}) /
      divisor_);
}

LinearPermutation::LinearPermutation(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t modulus)
    : LinearPermutation(a, b, ModularReducer(modulus)) {}

LinearPermutation::LinearPermutation(std::uint64_t a, std::uint64_t b,
                                     const ModularReducer& modulus)
    : a_(a), b_(b), modulus_(modulus) {
  const std::uint64_t p = modulus.modulus();
  if (!is_prime(p)) {
    throw std::invalid_argument("LinearPermutation: modulus must be prime");
  }
  if (a == 0 || a >= p || b >= p) {
    throw std::invalid_argument(
        "LinearPermutation: require 1 <= a < p and 0 <= b < p");
  }
  a_inverse_ = inverse_mod(a_, p);
}

LinearPermutation LinearPermutation::random(std::uint64_t universe_size,
                                            Xoshiro256& rng) {
  if (universe_size < 2) {
    throw std::invalid_argument("LinearPermutation: universe too small");
  }
  const std::uint64_t p = next_prime(universe_size);
  const std::uint64_t a = 1 + rng.next_below(p - 1);
  const std::uint64_t b = rng.next_below(p);
  return LinearPermutation(a, b, p);
}

std::uint64_t LinearPermutation::inverse(std::uint64_t y) const {
  const std::uint64_t p = modulus();
  const std::uint64_t shifted = (y + p - b_ % p) % p;
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(shifted) * a_inverse_ % p);
}

std::vector<LinearPermutation> make_permutation_family(
    std::uint64_t universe_size, std::size_t count, std::uint64_t seed) {
  if (universe_size < 2) {
    throw std::invalid_argument("make_permutation_family: universe too small");
  }
  Xoshiro256 rng(seed);
  // Hoisted out of the loop: the modulus is shared by the whole family,
  // next_prime near 2^63 costs ~10^4 modular multiplications per call, and
  // the reducer's reciprocal is computed once for all members.
  const std::uint64_t p = next_prime(universe_size);
  const ModularReducer modulus(p);
  std::vector<LinearPermutation> family;
  family.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t a = 1 + rng.next_below(p - 1);
    const std::uint64_t b = rng.next_below(p);
    family.emplace_back(a, b, modulus);
  }
  return family;
}

namespace {

using FamilyKey = std::tuple<std::uint64_t, std::size_t, std::uint64_t>;
using Family = std::shared_ptr<const std::vector<LinearPermutation>>;

struct FamilyCache {
  std::mutex mutex;
  std::map<FamilyKey, Family> families;  // guarded by mutex
};

FamilyCache& family_cache() {
  static FamilyCache cache;
  return cache;
}

}  // namespace

Family shared_permutation_family(std::uint64_t universe_size,
                                 std::size_t count, std::uint64_t seed) {
  if (Family family = find_permutation_family(universe_size, count, seed)) {
    return family;
  }
  // Draw outside the lock — next_prime near 2^63 is the expensive part and
  // the draw is deterministic, so a racing duplicate is identical and the
  // first insert simply wins.
  auto family = std::make_shared<const std::vector<LinearPermutation>>(
      make_permutation_family(universe_size, count, seed));
  FamilyCache& cache = family_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.families
      .try_emplace(FamilyKey{universe_size, count, seed}, std::move(family))
      .first->second;
}

Family find_permutation_family(std::uint64_t universe_size, std::size_t count,
                               std::uint64_t seed) {
  FamilyCache& cache = family_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  const auto it = cache.families.find(FamilyKey{universe_size, count, seed});
  return it == cache.families.end() ? nullptr : it->second;
}

std::size_t permutation_family_cache_size() {
  FamilyCache& cache = family_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.families.size();
}

}  // namespace icd::util
