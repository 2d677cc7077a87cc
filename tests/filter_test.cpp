// Tests for icd::filter: Bloom filters (including the paper's Section 5.2
// false-positive figures), counting Bloom filters and the partitioned
// "beta mod rho" pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "filter/bloom.hpp"
#include "filter/counting_bloom.hpp"
#include "filter/partitioned_bloom.hpp"
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

TEST(BloomFilter, FillRatioMatchesTheory) {
  // Expected fill ratio is 1 - e^{-kn/m} (~0.53 at k = 6, m/n = 8).
  const auto keys = random_keys(10000, 2);
  auto filter = BloomFilter::with_bits_per_element(keys.size(), 8.0);
  filter.insert_all(keys);
  const double k = static_cast<double>(filter.hash_count());
  const double expected =
      1.0 - std::exp(-k * static_cast<double>(keys.size()) /
                     static_cast<double>(filter.bit_count()));
  EXPECT_NEAR(filter.fill_ratio(), expected, 0.02);
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

TEST(BloomFilter, UnionBehavesLikeUnionOfSets) {
  const auto keys_a = random_keys(1000, 4);
  const auto keys_b = random_keys(1000, 5);
  auto a = BloomFilter(16000, 5, 77);
  auto b = BloomFilter(16000, 5, 77);
  a.insert_all(keys_a);
  b.insert_all(keys_b);

  auto direct = BloomFilter(16000, 5, 77);
  direct.insert_all(keys_a);
  direct.insert_all(keys_b);

  a.merge_union(b);
  for (std::uint64_t probe = 0; probe < 5000; ++probe) {
    EXPECT_EQ(a.contains(probe), direct.contains(probe));
  }
}

TEST(BloomFilter, MergeRequiresCompatibleGeometry) {
  BloomFilter a(1000, 3, 1);
  BloomFilter b(1000, 3, 2);   // different seed
  BloomFilter c(2000, 3, 1);   // different size
  BloomFilter d(1000, 4, 1);   // different hash count
  EXPECT_THROW(a.merge_union(b), std::invalid_argument);
  EXPECT_THROW(a.merge_union(c), std::invalid_argument);
  EXPECT_THROW(a.merge_union(d), std::invalid_argument);
}

TEST(BloomFilter, IntersectionNeverLosesCommonElements) {
  const auto common = random_keys(500, 6);
  auto a = BloomFilter(16000, 5);
  auto b = BloomFilter(16000, 5);
  a.insert_all(common);
  b.insert_all(common);
  a.insert_all(random_keys(500, 7));
  b.insert_all(random_keys(500, 8));
  a.merge_intersect(b);
  for (const auto key : common) {
    EXPECT_TRUE(a.contains(key));
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

TEST(CountingBloom, InsertEraseRestoresState) {
  CountingBloomFilter filter(8000, 4);
  const auto keys = random_keys(500, 11);
  for (const auto key : keys) filter.insert(key);
  for (const auto key : keys) EXPECT_TRUE(filter.contains(key));
  for (const auto key : keys) filter.erase(key);
  std::size_t still_present = 0;
  for (const auto key : keys) {
    if (filter.contains(key)) ++still_present;
  }
  // All counters were below saturation, so every key should be gone.
  EXPECT_EQ(still_present, 0u);
}

TEST(CountingBloom, NoFalseNegativesUnderChurn) {
  CountingBloomFilter filter(16000, 4);
  util::Xoshiro256 rng(12);
  std::vector<std::uint64_t> live;
  for (int round = 0; round < 2000; ++round) {
    if (!live.empty() && rng.next_bool(0.4)) {
      const auto idx = rng.next_below(live.size());
      filter.erase(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const auto key = rng();
      filter.insert(key);
      live.push_back(key);
    }
    // Invariant: every live key is still reported present.
    for (const auto key : live) ASSERT_TRUE(filter.contains(key));
  }
}

TEST(CountingBloom, SaturatedCountersAreSticky) {
  CountingBloomFilter filter(4, 1);  // tiny: forces collisions
  for (int i = 0; i < 100; ++i) filter.insert(7);
  for (int i = 0; i < 100; ++i) filter.erase(7);
  // The counter saturated at 15 and erase must not drive it to a false
  // negative for a key that is arguably still present.
  EXPECT_TRUE(filter.contains(7));
}

TEST(CountingBloom, ProjectsToBloomBits) {
  CountingBloomFilter filter(1000, 3);
  filter.insert(42);
  const auto bits = filter.to_bloom_bits();
  std::size_t set = 0;
  for (const bool b : bits) set += b;
  EXPECT_GE(set, 1u);
  EXPECT_LE(set, 3u);
}

TEST(PartitionedBloom, CoversExactlyOneResidueClass) {
  const auto keys = random_keys(4000, 13);
  PartitionedBloomFilter filter(keys, 8, 3, 8.0);
  for (const auto key : keys) {
    const bool in_class = PartitionedBloomFilter::residue_of(key, 8) == 3;
    EXPECT_EQ(filter.covers(key), in_class);
    if (in_class) {
      EXPECT_TRUE(filter.contains(key));
    }
  }
}

TEST(PartitionedBloom, ClassesAreBalanced) {
  const auto keys = random_keys(8000, 14);
  for (std::uint32_t beta = 0; beta < 4; ++beta) {
    PartitionedBloomFilter filter(keys, 4, beta, 8.0);
    EXPECT_NEAR(static_cast<double>(filter.covered_count()), 2000.0, 200.0);
  }
}

TEST(PartitionedBloom, RejectsBadParameters) {
  const auto keys = random_keys(10, 15);
  EXPECT_THROW(PartitionedBloomFilter(keys, 0, 0, 8.0), std::invalid_argument);
  EXPECT_THROW(PartitionedBloomFilter(keys, 4, 4, 8.0), std::invalid_argument);
}

TEST(PartitionedBloom, PipelineCoversAllKeysExactlyOnce) {
  const auto keys = random_keys(3000, 16);
  BloomFilterPipeline pipeline(keys, 6, 8.0);
  std::size_t covered = 0;
  std::size_t emitted = 0;
  while (auto filter = pipeline.next()) {
    covered += filter->covered_count();
    ++emitted;
    // No false negatives within the class.
    for (const auto key : keys) {
      if (filter->covers(key)) {
        EXPECT_TRUE(filter->contains(key));
      }
    }
  }
  EXPECT_EQ(emitted, 6u);
  EXPECT_EQ(covered, keys.size());
  EXPECT_TRUE(pipeline.exhausted());
  EXPECT_EQ(pipeline.next(), std::nullopt);
}

TEST(PartitionedBloom, PipelineFindsDifferencesSliceBySlice) {
  // Reconciliation use: A's pipeline lets B find B - A one residue class at
  // a time.
  auto keys_a = random_keys(2000, 17);
  auto keys_b = keys_a;
  const auto extra = random_keys(100, 18);
  keys_b.insert(keys_b.end(), extra.begin(), extra.end());

  BloomFilterPipeline pipeline(keys_a, 4, 8.0);
  std::size_t found = 0;
  while (auto filter = pipeline.next()) {
    for (const auto key : keys_b) {
      if (filter->covers(key) && !filter->contains(key)) ++found;
    }
  }
  // All 100 extras should be discovered modulo Bloom false positives.
  EXPECT_GE(found, 90u);
  EXPECT_LE(found, 100u);
}

}  // namespace
}  // namespace icd::filter
