#include "sketch/bottomk.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "util/buffer.hpp"

namespace icd::sketch {

namespace {

util::LinearPermutation shared_permutation(std::uint64_t universe_size,
                                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return util::LinearPermutation::random(universe_size, rng);
}

}  // namespace

BottomKSketch::BottomKSketch(std::uint64_t universe_size, std::size_t k,
                             std::uint64_t seed)
    : universe_size_(universe_size), seed_(seed), k_(k),
      permutation_(shared_permutation(universe_size, seed)) {
  if (k == 0) throw std::invalid_argument("BottomKSketch: k must be > 0");
}

void BottomKSketch::update(std::uint64_t key) {
  const std::uint64_t v = permutation_(key);
  const auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it != values_.end() && *it == v) return;  // duplicate element
  if (values_.size() == k_) {
    if (v >= values_.back()) return;
    values_.pop_back();
  }
  values_.insert(std::lower_bound(values_.begin(), values_.end(), v), v);
}

void BottomKSketch::update_all(const std::vector<std::uint64_t>& keys) {
  for (const std::uint64_t key : keys) update(key);
}

void BottomKSketch::check_compatible(const BottomKSketch& other) const {
  if (universe_size_ != other.universe_size_ || seed_ != other.seed_ ||
      k_ != other.k_) {
    throw std::invalid_argument("BottomKSketch: incompatible sketches");
  }
}

double BottomKSketch::resemblance(const BottomKSketch& a,
                                  const BottomKSketch& b) {
  a.check_compatible(b);
  if (a.values_.empty() && b.values_.empty()) return 1.0;
  // The k smallest values of union(sketch(A), sketch(B)) are exactly the k
  // smallest permuted values of A ∪ B; each lies in A ∩ B iff it appears
  // in both sketches.
  std::vector<std::uint64_t> merged;
  merged.reserve(a.values_.size() + b.values_.size());
  std::merge(a.values_.begin(), a.values_.end(), b.values_.begin(),
             b.values_.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  const std::size_t take = std::min(merged.size(), a.k_);
  std::size_t in_both = 0;
  for (std::size_t i = 0; i < take; ++i) {
    const std::uint64_t v = merged[i];
    const bool in_a =
        std::binary_search(a.values_.begin(), a.values_.end(), v);
    const bool in_b =
        std::binary_search(b.values_.begin(), b.values_.end(), v);
    if (in_a && in_b) ++in_both;
  }
  return static_cast<double>(in_both) / static_cast<double>(take);
}

BottomKSketch BottomKSketch::combine_union(const BottomKSketch& a,
                                           const BottomKSketch& b) {
  a.check_compatible(b);
  BottomKSketch result = a;
  std::vector<std::uint64_t> merged;
  merged.reserve(a.values_.size() + b.values_.size());
  std::merge(a.values_.begin(), a.values_.end(), b.values_.begin(),
             b.values_.end(), std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (merged.size() > a.k_) merged.resize(a.k_);
  result.values_ = std::move(merged);
  return result;
}

std::vector<std::uint8_t> BottomKSketch::serialize() const {
  util::ByteWriter writer;
  writer.u64(universe_size_);
  writer.u64(seed_);
  writer.varint(k_);
  writer.varint(values_.size());
  for (const std::uint64_t v : values_) writer.u64(v);
  return writer.take();
}

BottomKSketch BottomKSketch::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  try {
    util::ByteReader reader(bytes);
    const std::uint64_t universe = reader.u64();
    const std::uint64_t seed = reader.u64();
    const std::size_t k = reader.varint();
    const std::size_t count = reader.varint();
    // Bound the count by what the sketch and the payload can hold before
    // allocating anything: a hostile count must fail, not reserve.
    if (count > std::min<std::size_t>(k, reader.remaining() / 8)) {
      throw std::invalid_argument("BottomKSketch: count exceeds k or payload");
    }
    BottomKSketch sketch(universe, k, seed);
    sketch.values_.resize(count);
    reader.u64s(sketch.values_);
    // The estimators binary-search the values, so they must ascend
    // strictly (the k smallest distinct permuted values).
    if (std::adjacent_find(sketch.values_.begin(), sketch.values_.end(),
                           std::greater_equal<>()) != sketch.values_.end()) {
      throw std::invalid_argument("BottomKSketch: values not ascending");
    }
    if (!reader.done()) {
      throw std::invalid_argument("BottomKSketch: trailing bytes");
    }
    return sketch;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("BottomKSketch: truncated payload");
  } catch (const std::overflow_error&) {
    throw std::invalid_argument("BottomKSketch: universe too large");
  }
}

}  // namespace icd::sketch
