// Tests for icd::filter's Bloom filter: the paper's Section 5.2
// false-positive figures, geometry checks and the wire round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "filter/bloom.hpp"
#include "util/random.hpp"

namespace icd::filter {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng());
  return keys;
}

TEST(BloomFilter, NoFalseNegatives) {
  const auto keys = random_keys(5000, 1);
  auto filter = BloomFilter::with_bits_per_element(keys.size(), 8.0);
  filter.insert_all(keys);
  for (const auto key : keys) {
    EXPECT_TRUE(filter.contains(key));
  }
}

TEST(BloomFilter, RejectsZeroGeometry) {
  EXPECT_THROW(BloomFilter(0, 3), std::invalid_argument);
  EXPECT_THROW(BloomFilter(64, 0), std::invalid_argument);
}

// The paper's two headline operating points: "using just four bits per
// element and three hash functions yields a false positive probability of
// 14.7%; using eight bits per element and five hash functions yields a
// false positive probability of 2.2%."
struct FpOperatingPoint {
  double bits_per_element;
  std::size_t hashes;
  double expected_fp;
};

class BloomFpRate : public ::testing::TestWithParam<FpOperatingPoint> {};

TEST_P(BloomFpRate, FormulaMatchesPaper) {
  const auto [bpe, k, expected] = GetParam();
  constexpr std::size_t n = 10000;
  const auto m = static_cast<std::size_t>(bpe * n);
  EXPECT_NEAR(BloomFilter::fp_rate(m, n, k), expected, 0.002);
}

TEST_P(BloomFpRate, MeasuredRateMatchesFormula) {
  const auto [bpe, k, expected] = GetParam();
  constexpr std::size_t n = 10000;
  const auto keys = random_keys(n, 3);
  BloomFilter filter(static_cast<std::size_t>(bpe * n), k);
  filter.insert_all(keys);

  util::Xoshiro256 rng(99);
  std::size_t false_positives = 0;
  constexpr std::size_t kProbes = 50000;
  for (std::size_t i = 0; i < kProbes; ++i) {
    // Fresh random keys collide with the inserted set with probability
    // ~n/2^64, i.e. never.
    if (filter.contains(rng())) ++false_positives;
  }
  const double measured =
      static_cast<double>(false_positives) / static_cast<double>(kProbes);
  EXPECT_NEAR(measured, expected, expected * 0.25 + 0.003);
}

INSTANTIATE_TEST_SUITE_P(
    PaperOperatingPoints, BloomFpRate,
    ::testing::Values(FpOperatingPoint{4.0, 3, 0.147},
                      FpOperatingPoint{8.0, 5, 0.022}));

TEST(BloomFilter, FpRateDecreasesWithBits) {
  double previous = 1.0;
  for (const double bpe : {2.0, 4.0, 6.0, 8.0, 10.0, 12.0}) {
    const auto k = static_cast<std::size_t>(bpe * 0.693 + 0.5);
    const double f = BloomFilter::fp_rate(
        static_cast<std::size_t>(bpe * 1000), 1000, std::max<std::size_t>(k, 1));
    EXPECT_LT(f, previous);
    previous = f;
  }
}

TEST(BloomFilter, SerializationRoundTrip) {
  const auto keys = random_keys(2000, 9);
  auto filter = BloomFilter::with_bits_per_element(keys.size(), 8.0);
  filter.insert_all(keys);
  const auto bytes = filter.serialize();
  const auto restored = BloomFilter::deserialize(bytes);
  EXPECT_EQ(restored.bit_count(), filter.bit_count());
  EXPECT_EQ(restored.hash_count(), filter.hash_count());
  EXPECT_EQ(restored.inserted_count(), filter.inserted_count());
  for (const auto key : keys) EXPECT_TRUE(restored.contains(key));
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 2000; ++i) {
    const auto probe = rng();
    EXPECT_EQ(filter.contains(probe), restored.contains(probe));
  }
}

TEST(BloomFilter, PaperSizeClaim) {
  // "Using four bits per element, we can create filters for 10,000 packets
  // using just 40,000 bits, which can fit into five 1 KB packets."
  auto filter = BloomFilter::with_bits_per_element(10000, 4.0);
  EXPECT_EQ(filter.bit_count(), 40000u);
  const auto bytes = filter.serialize().size();
  EXPECT_LE((bytes + 1023) / 1024, 5u);
}

}  // namespace
}  // namespace icd::filter
