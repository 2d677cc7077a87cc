#include "sketch/minwise.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/buffer.hpp"
#include "util/hash.hpp"

namespace icd::sketch {

namespace {

std::size_t at_least_one(std::size_t permutations) {
  if (permutations == 0) {
    throw std::invalid_argument("MinwiseSketch: need at least 1 permutation");
  }
  return permutations;
}

MatchKernel select_match_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return match_minima_avx2;
#endif
  return match_minima_portable;
}

}  // namespace

MinwiseSketch::MinwiseSketch(std::uint64_t universe_size,
                             std::size_t permutations, std::uint64_t seed)
    : MinwiseSketch(universe_size, seed,
                    util::shared_permutation_family(
                        universe_size, at_least_one(permutations), seed)) {}

MinwiseSketch::MinwiseSketch(
    std::uint64_t universe_size, std::uint64_t seed,
    std::shared_ptr<const std::vector<util::LinearPermutation>> permutations)
    : universe_size_(universe_size), seed_(seed),
      permutations_(std::move(permutations)),
      minima_(permutations_->size(), kEmpty) {}

void MinwiseSketch::update(std::uint64_t key) {
  const auto& family = *permutations_;
  // The family shares one modulus: reduce the key once, and hold the
  // reducer in locals that the stores to minima_ cannot alias.
  const util::ModularReducer modulus = family.front().reducer();
  const std::uint64_t x = modulus.reduce(key);
  const std::size_t n = family.size();
  std::uint64_t* minima = minima_.data();
  for (std::size_t j = 0; j < n; ++j) {
    minima[j] = std::min(minima[j], family[j].apply(modulus, x));
  }
}

void MinwiseSketch::update_all(const std::vector<std::uint64_t>& keys) {
  for (const std::uint64_t key : keys) update(key);
}

void MinwiseSketch::check_compatible(const MinwiseSketch& other) const {
  if (universe_size_ != other.universe_size_ || seed_ != other.seed_ ||
      minima_.size() != other.minima_.size()) {
    throw std::invalid_argument("MinwiseSketch: incompatible sketches");
  }
}

double MinwiseSketch::resemblance(const MinwiseSketch& a,
                                  const MinwiseSketch& b) {
  a.check_compatible(b);
  const std::size_t n = a.minima_.size();
  const MinimaMatch match =
      match_minima_kernel()(a.minima_.data(), b.minima_.data(), n);
  const std::size_t live = n - match.both_empty;
  if (live == 0) return 1.0;  // both sets empty
  return static_cast<double>(match.equal - match.both_empty) /
         static_cast<double>(live);
}

MinwiseSketch MinwiseSketch::combine_union(const MinwiseSketch& a,
                                           const MinwiseSketch& b) {
  a.check_compatible(b);
  MinwiseSketch result = a;
  for (std::size_t j = 0; j < result.minima_.size(); ++j) {
    result.minima_[j] = std::min(result.minima_[j], b.minima_[j]);
  }
  return result;
}

std::vector<std::uint8_t> MinwiseSketch::serialize() const {
  util::ByteWriter writer;
  serialize_into(writer);
  return writer.take();
}

std::size_t MinwiseSketch::serialized_size() const {
  return 16 + util::varint_size(minima_.size()) + 8 * minima_.size();
}

void MinwiseSketch::serialize_into(util::ByteWriter& out) const {
  out.u64(universe_size_);
  out.u64(seed_);
  out.varint(minima_.size());
  out.u64s(minima_);
}

MinwiseSketch MinwiseSketch::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader reader(bytes);
  const std::uint64_t universe = reader.u64();
  const std::uint64_t seed = reader.u64();
  const std::size_t count = reader.varint();
  // Bound by what the payload can hold (8 bytes per minimum): a corrupt
  // count must fail like a truncation, not attempt a giant allocation.
  if (count > reader.remaining() / 8) {
    throw std::out_of_range("MinwiseSketch: count exceeds payload");
  }
  auto family = util::find_permutation_family(universe, at_least_one(count),
                                              seed);
  if (family == nullptr) {
    throw std::invalid_argument(
        "MinwiseSketch: no local sketch uses this universe, count and seed");
  }
  MinwiseSketch sketch(universe, seed, std::move(family));
  reader.u64s(sketch.minima_);
  if (!reader.done()) {
    throw std::invalid_argument("MinwiseSketch: trailing bytes in blob");
  }
  return sketch;
}

MinimaMatch match_minima_portable(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n) {
  MinimaMatch match;
  for (std::size_t j = 0; j < n; ++j) {
    const bool equal = a[j] == b[j];
    match.equal += equal;
    match.both_empty += equal & (a[j] == MinwiseSketch::kEmpty);
  }
  return match;
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) MinimaMatch match_minima_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  // Each compare yields all-ones (-1) per equal lane, so subtracting it
  // counts: four 64-bit tallies per accumulator.
  const __m256i empty = _mm256_set1_epi64x(-1);
  __m256i equal = _mm256_setzero_si256();
  __m256i both_empty = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i eq = _mm256_cmpeq_epi64(va, vb);
    equal = _mm256_sub_epi64(equal, eq);
    both_empty = _mm256_sub_epi64(
        both_empty, _mm256_and_si256(eq, _mm256_cmpeq_epi64(va, empty)));
  }
  std::uint64_t equal_lanes[4];
  std::uint64_t empty_lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(equal_lanes), equal);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(empty_lanes), both_empty);
  MinimaMatch match = match_minima_portable(a + j, b + j, n - j);
  for (int lane = 0; lane < 4; ++lane) {
    match.equal += equal_lanes[lane];
    match.both_empty += empty_lanes[lane];
  }
  return match;
}
#endif

MatchKernel match_minima_kernel() {
  static const MatchKernel kernel = select_match_kernel();
  return kernel;
}

double containment_from_resemblance(double resemblance, std::size_t size_a,
                                    std::size_t size_b) {
  if (size_b == 0) return 0.0;
  const double r = std::clamp(resemblance, 0.0, 1.0);
  const double intersection =
      r / (1.0 + r) * (static_cast<double>(size_a) + size_b);
  return std::clamp(intersection / static_cast<double>(size_b), 0.0, 1.0);
}

double resemblance_from_containment(double containment, std::size_t size_a,
                                    std::size_t size_b) {
  const double intersection = containment * static_cast<double>(size_b);
  const double uni = static_cast<double>(size_a) + size_b - intersection;
  if (uni <= 0.0) return 1.0;
  return std::clamp(intersection / uni, 0.0, 1.0);
}

}  // namespace icd::sketch
