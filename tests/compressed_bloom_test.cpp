// Tests for the arithmetic coder and compressed Bloom filters.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "filter/compressed_bloom.hpp"
#include "util/arith_coder.hpp"
#include "util/buffer.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

std::vector<bool> random_bits(std::size_t n, double p1, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.next_bool(p1);
  return bits;
}

TEST(ArithCoder, BinaryEntropyKnownValues) {
  EXPECT_DOUBLE_EQ(util::binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(util::binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(util::binary_entropy(0.5), 1.0);
  EXPECT_NEAR(util::binary_entropy(0.1), 0.469, 0.001);
}

TEST(ArithCoder, RoundTripsAcrossProbabilities) {
  for (const double p1 : {0.01, 0.05, 0.2, 0.5, 0.8, 0.99}) {
    const auto bits = random_bits(5000, p1, 42);
    const auto coded = util::arith_encode_bits(bits, p1);
    const auto decoded = util::arith_decode_bits(coded, bits.size(), p1);
    ASSERT_EQ(decoded, bits) << "p1 = " << p1;
  }
}

TEST(ArithCoder, RoundTripsEdgeCases) {
  // Empty input.
  EXPECT_TRUE(util::arith_decode_bits(util::arith_encode_bits({}, 0.3), 0, 0.3)
                  .empty());
  // All-zero and all-one runs under extreme models.
  const std::vector<bool> zeros(1000, false);
  EXPECT_EQ(util::arith_decode_bits(util::arith_encode_bits(zeros, 0.001),
                                    1000, 0.001),
            zeros);
  const std::vector<bool> ones(1000, true);
  EXPECT_EQ(util::arith_decode_bits(util::arith_encode_bits(ones, 0.999),
                                    1000, 0.999),
            ones);
  // Mismatched model still round-trips (just compresses badly).
  const auto bits = random_bits(2000, 0.5, 7);
  EXPECT_EQ(util::arith_decode_bits(util::arith_encode_bits(bits, 0.5), 2000,
                                    0.5),
            bits);
}

TEST(ArithCoder, FuzzRoundTrips) {
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const double p1 = 0.01 + 0.98 * rng.next_double();
    const std::size_t n = rng.next_below(3000);
    const auto bits = random_bits(n, p1, 1000 + static_cast<std::uint64_t>(trial));
    const auto coded = util::arith_encode_bits(bits, p1);
    ASSERT_EQ(util::arith_decode_bits(coded, n, p1), bits)
        << "trial " << trial << " p1=" << p1 << " n=" << n;
  }
}

TEST(ArithCoder, CompressionApproachesEntropyBound) {
  constexpr std::size_t kBits = 200000;
  for (const double p1 : {0.02, 0.05, 0.1, 0.3}) {
    const auto bits = random_bits(kBits, p1, 5);
    const auto coded = util::arith_encode_bits(bits, p1);
    const double rate = 8.0 * static_cast<double>(coded.size()) / kBits;
    const double entropy = util::binary_entropy(p1);
    EXPECT_LT(rate, entropy * 1.08 + 0.01) << "p1 = " << p1;
    EXPECT_GT(rate, entropy * 0.9) << "p1 = " << p1;  // no magic
  }
}

TEST(CompressedBloom, RoundTripPreservesFilterExactly) {
  util::Xoshiro256 rng(6);
  auto filter = filter::CompressedBloomFilter::design(2000, 8.0);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(rng());
  filter.insert_all(keys);
  const auto bytes = filter.serialize();
  const auto restored = filter::CompressedBloomFilter::deserialize(bytes);
  for (const auto key : keys) EXPECT_TRUE(restored.contains(key));
  for (int i = 0; i < 5000; ++i) {
    const auto probe = rng();
    EXPECT_EQ(filter.contains(probe), restored.contains(probe));
  }
}

TEST(CompressedBloom, BeatsClassicalFpAtEqualWireBudget) {
  // The Mitzenmacher result: at the same transmitted bits per element, the
  // compressed (larger, sparser) filter has a lower false-positive rate
  // than the classical RAM-optimal filter.
  constexpr std::size_t n = 5000;
  constexpr double kWireBudget = 8.0;
  util::Xoshiro256 rng(7);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng());

  auto classical = filter::BloomFilter::with_bits_per_element(n, kWireBudget);
  classical.insert_all(keys);
  auto compressed = filter::CompressedBloomFilter::design(n, kWireBudget);
  compressed.insert_all(keys);

  // The compressed filter really fits the budget on the wire.
  const double wire_bits_per_element =
      8.0 * static_cast<double>(compressed.serialize().size()) / n;
  EXPECT_LT(wire_bits_per_element, kWireBudget * 1.10);

  std::size_t classical_fp = 0, compressed_fp = 0;
  constexpr std::size_t kProbes = 100000;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto probe = rng();
    classical_fp += classical.contains(probe);
    compressed_fp += compressed.contains(probe);
  }
  EXPECT_LT(compressed_fp, classical_fp);
  // It costs memory: the in-RAM array is larger than the wire form.
  EXPECT_GT(compressed.memory_bits(), static_cast<std::size_t>(kWireBudget * n));
}

TEST(CompressedBloom, BitCountsTheStreamCannotHoldAreRejected) {
  // A 22-byte payload: the header claims the bit count, the model is the
  // most skewed one (fill 1/65535, the cheapest zeros), and the coded
  // stream is the 4-byte minimum. The decoder runs out of stream long
  // before the claim and must throw, not reserve or decode it.
  for (const std::uint64_t claim : {std::uint64_t{1} << 28,
                                    std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 61}) {
    util::ByteWriter writer;
    writer.varint(claim);  // bit count
    writer.varint(4);      // hashes
    writer.u64(0);         // seed
    writer.varint(0);      // inserted
    writer.u16(1);         // fill ratio, in 1/65535ths
    const std::vector<std::uint8_t> coded(4, 0);
    writer.varint(coded.size());
    writer.raw(coded);
    EXPECT_THROW(filter::CompressedBloomFilter::deserialize(writer.take()),
                 std::invalid_argument)
        << "claim " << claim;
  }
}

TEST(CompressedBloom, DesignRejectsBadInputs) {
  EXPECT_THROW(filter::CompressedBloomFilter::design(0, 8.0),
               std::invalid_argument);
  EXPECT_THROW(filter::CompressedBloomFilter::design(100, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace icd
