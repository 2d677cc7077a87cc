// Tests for the icd::util substrate: RNG, primality, hashing, permutations,
// bit vectors, serialization buffers, packet counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "util/bitvector.hpp"
#include "util/buffer.hpp"
#include "util/hash.hpp"
#include "util/packet.hpp"
#include "util/permutation.hpp"
#include "util/prime.hpp"
#include "util/random.hpp"

namespace icd::util {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values for seed 0 from the published splitmix64 algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro256, NextBelowZeroThrows) {
  Xoshiro256 rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256, NextBelowRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.next_below(kBuckets)]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(Xoshiro256, JumpDecorrelates) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SampleWithoutReplacement, ProducesDistinctValuesInRange) {
  Xoshiro256 rng(3);
  const auto sample = sample_without_replacement(100, 30, rng);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacement, FullRangeIsPermutation) {
  Xoshiro256 rng(4);
  const auto sample = sample_without_replacement(50, 50, rng);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(SampleWithoutReplacement, RejectsOversizedRequest) {
  Xoshiro256 rng(5);
  EXPECT_THROW(sample_without_replacement(10, 11, rng), std::invalid_argument);
}

/// Robert Floyd's algorithm over a std::unordered_set, as the library drew
/// it before its large draws moved to a table in the output's storage:
/// the draws and the output order that implementation must keep.
std::vector<std::uint64_t> floyd_over_hash_set(std::uint64_t n, std::size_t k,
                                               Xoshiro256& rng) {
  std::vector<std::uint64_t> result;
  std::unordered_set<std::uint64_t> chosen;
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = rng.next_below(j + 1);
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  return result;
}

TEST(SampleWithoutReplacement, MatchesFloydOverAHashSetAtEverySize) {
  // Every (n, k) with n <= 130 crosses the k = 64 switch to the table;
  // the larger n take k up to 130, plus n / 2, n - 1 and n. One `out` is
  // reused throughout, as callers reuse theirs, so a stale table cell
  // from an earlier draw would show.
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n = 1; n <= 130; ++n) sizes.push_back(n);
  for (const std::uint64_t n : {255u, 256u, 257u, 511u, 512u, 1000u, 1024u,
                                2048u, 4095u, 4096u}) {
    sizes.push_back(n);
  }
  std::vector<std::uint64_t> out;
  for (const std::uint64_t n : sizes) {
    std::vector<std::uint64_t> ks;
    for (std::uint64_t k = 1; k <= std::min<std::uint64_t>(n, 130); ++k) {
      ks.push_back(k);
    }
    for (const std::uint64_t k : {n / 2, n - 1, n}) {
      if (k > 130) ks.push_back(k);
    }
    for (const std::uint64_t k : ks) {
      Xoshiro256 rng(n * 7919 + k);
      Xoshiro256 reference_rng(n * 7919 + k);
      Xoshiro256 wrapper_rng(n * 7919 + k);
      sample_without_replacement_into(out, n, k, rng);
      ASSERT_EQ(out, floyd_over_hash_set(n, k, reference_rng))
          << "n " << n << ", k " << k;
      ASSERT_EQ(rng(), reference_rng()) << "n " << n << ", k " << k;
      ASSERT_EQ(sample_without_replacement(n, k, wrapper_rng), out)
          << "n " << n << ", k " << k;
    }
  }
}

TEST(SampleWithoutReplacement, UniformCoverage) {
  // Every element should be picked with probability k/n.
  Xoshiro256 rng(6);
  constexpr int kTrials = 20000;
  int hits[20] = {};
  for (int t = 0; t < kTrials; ++t) {
    for (const auto v : sample_without_replacement(20, 5, rng)) {
      hits[v]++;
    }
  }
  for (const int h : hits) {
    EXPECT_NEAR(h, kTrials / 4, kTrials / 40);
  }
}

TEST(Shuffle, PreservesElements) {
  Xoshiro256 rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Prime, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(1000));
  EXPECT_TRUE(is_prime(7919));
}

TEST(Prime, LargeKnownPrimes) {
  EXPECT_TRUE(is_prime((std::uint64_t{1} << 61) - 1));  // Mersenne M61
  EXPECT_TRUE(is_prime(0xFFFFFFFFFFFFFFC5ULL));         // largest 64-bit prime
  EXPECT_FALSE(is_prime((std::uint64_t{1} << 61)));
  EXPECT_FALSE(is_prime(0xFFFFFFFFFFFFFFC7ULL));
}

TEST(Prime, CarmichaelNumbersRejected) {
  EXPECT_FALSE(is_prime(561));
  EXPECT_FALSE(is_prime(1105));
  EXPECT_FALSE(is_prime(41041));
  EXPECT_FALSE(is_prime(825265));
}

TEST(Prime, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(7908), 7919u);
}

TEST(Prime, MulModMatchesSmallCases) {
  EXPECT_EQ(mul_mod(7, 8, 5), 1u);
  EXPECT_EQ(mul_mod(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
                    0xFFFFFFFFFFFFFFC5ULL),
            mul_mod(58, 58, 0xFFFFFFFFFFFFFFC5ULL));
}

TEST(Prime, PowModKnownValues) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(3, 0, 7), 1u);
  EXPECT_EQ(pow_mod(10, 18, 1000000007ULL), 49u);  // 10^18 mod p
}

TEST(Prime, InverseMod) {
  const std::uint64_t p = 1000000007ULL;
  for (std::uint64_t a :
       {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{123456789}, p - 1}) {
    EXPECT_EQ(mul_mod(a, inverse_mod(a, p), p), 1u);
  }
  EXPECT_THROW(inverse_mod(0, p), std::invalid_argument);
}

TEST(Hash, Mix64IsBijectiveOnSamples) {
  // Injectivity spot check: no collisions across a large sample.
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    seen.insert(mix64(i));
  }
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(Hash, SeedChangesHash64) {
  int equal = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (hash64(i, 1) == hash64(i, 2)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Hash, Fnv1aKnownVector) {
  const std::string s = "hello";
  const auto h = fnv1a(std::as_bytes(std::span(s.data(), s.size())));
  EXPECT_EQ(h, 0xa430d84680aabd0bULL);
}

TEST(DoubleHashFamily, CoversRange) {
  DoubleHashFamily family(100, 1);
  std::set<std::size_t> positions;
  for (std::uint64_t key = 0; key < 500; ++key) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto p = family.at(key, i);
      EXPECT_LT(p, 100u);
      positions.insert(p);
    }
  }
  EXPECT_EQ(positions.size(), 100u);  // all slots reachable
}

TEST(DoubleHashFamily, FillMatchesAt) {
  DoubleHashFamily family(997, 3);
  std::vector<std::size_t> out;
  family.fill(12345, 5, out);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], family.at(12345, i));
}

TEST(DoubleHashFamily, ZeroRangeThrows) {
  EXPECT_THROW(DoubleHashFamily(0, 1), std::invalid_argument);
}

TEST(TabulationHash, DeterministicAndSeedSensitive) {
  TabulationHash64 h1(1), h1b(1), h2(2);
  EXPECT_EQ(h1(12345), h1b(12345));
  EXPECT_NE(h1(12345), h2(12345));
}

TEST(LinearPermutation, IsBijectionOnFullDomain) {
  const std::uint64_t p = 101;
  LinearPermutation perm(13, 7, p);
  std::set<std::uint64_t> image;
  for (std::uint64_t x = 0; x < p; ++x) {
    const auto y = perm(x);
    EXPECT_LT(y, p);
    image.insert(y);
  }
  EXPECT_EQ(image.size(), p);
}

TEST(LinearPermutation, InverseRoundTrips) {
  Xoshiro256 rng(17);
  const auto perm = LinearPermutation::random(1 << 20, rng);
  for (std::uint64_t x = 0; x < 1000; ++x) {
    EXPECT_EQ(perm.inverse(perm(x)), x % perm.modulus());
  }
}

TEST(LinearPermutation, RejectsBadParameters) {
  EXPECT_THROW(LinearPermutation(1, 0, 100), std::invalid_argument);  // 100 not prime
  EXPECT_THROW(LinearPermutation(0, 0, 101), std::invalid_argument);  // a == 0
  EXPECT_THROW(LinearPermutation(101, 0, 101), std::invalid_argument);
}

TEST(LinearPermutation, FamilyIsDeterministicInSeed) {
  const auto f1 = make_permutation_family(1000, 8, 99);
  const auto f2 = make_permutation_family(1000, 8, 99);
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].a(), f2[i].a());
    EXPECT_EQ(f1[i].b(), f2[i].b());
  }
}

TEST(BitVector, SetGet) {
  BitVector bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.get(0));
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(129));
  EXPECT_FALSE(bits.get(1));
  EXPECT_FALSE(bits.get(128));
}

TEST(BitVector, SerializationRoundTrip) {
  // load_words reads the words as BloomFilter::serialize_into writes them.
  BitVector bits(100);
  bits.set(5);
  bits.set(63);
  bits.set(99);
  ByteWriter writer;
  for (const std::uint64_t word : bits.words()) writer.u64(word);
  BitVector restored(100);
  restored.load_words(writer.bytes());
  EXPECT_EQ(bits, restored);
  EXPECT_THROW(restored.load_words(std::span(writer.bytes()).first(8)),
               std::invalid_argument);
}

TEST(ByteBuffer, RoundTripsAllWidths) {
  ByteWriter writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.varint(0);
  writer.varint(127);
  writer.varint(128);
  writer.varint(0xffffffffffffffffULL);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.varint(), 0u);
  EXPECT_EQ(reader.varint(), 127u);
  EXPECT_EQ(reader.varint(), 128u);
  EXPECT_EQ(reader.varint(), 0xffffffffffffffffULL);
  EXPECT_TRUE(reader.done());
}

TEST(ByteBuffer, ReaderThrowsOnUnderrun) {
  ByteWriter writer;
  writer.u16(7);
  ByteReader reader(writer.bytes());
  reader.u8();
  EXPECT_THROW(reader.u16(), std::out_of_range);
}

TEST(ByteBuffer, VarintEncodingIsMinimal) {
  ByteWriter writer;
  writer.varint(127);
  EXPECT_EQ(writer.size(), 1u);
  writer.varint(128);
  EXPECT_EQ(writer.size(), 3u);  // 1 + 2
  writer.varint(1ULL << 21);
  EXPECT_EQ(writer.size(), 7u);  // + 4
}

TEST(Packet, PacketsForMatchesFormula) {
  EXPECT_EQ(packets_for(0), 0u);
  EXPECT_EQ(packets_for(1), 1u);
  EXPECT_EQ(packets_for(1024), 1u);
  EXPECT_EQ(packets_for(1025), 2u);
}

TEST(Packet, SketchFitsOnePacket) {
  // The paper's sizing argument: 128 64-bit minima fill exactly one 1 KB
  // packet.
  EXPECT_EQ(packets_for(128 * 8), 1u);
}

}  // namespace
}  // namespace icd::util
