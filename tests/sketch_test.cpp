// Tests for icd::sketch: min-wise sketches and the sampling estimators of
// Section 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sketch/minwise.hpp"
#include "sketch/sampling.hpp"
#include "util/buffer.hpp"
#include "util/packet.hpp"
#include "util/permutation.hpp"
#include "util/prime.hpp"
#include "util/random.hpp"

namespace icd::sketch {
namespace {

constexpr std::uint64_t kUniverse = 1 << 20;

/// Two sets with |A| = |B| = size and |A ∩ B| = shared.
struct SetPair {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  double true_resemblance;
  double true_containment_b;  // |A ∩ B| / |B|
};

SetPair make_set_pair(std::size_t size, std::size_t shared,
                      std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto ids =
      util::sample_without_replacement(kUniverse, 2 * size - shared, rng);
  SetPair pair;
  // A = ids[0, size); B = ids[size - shared, 2 size - shared).
  pair.a.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(size));
  pair.b.assign(ids.begin() + static_cast<std::ptrdiff_t>(size - shared),
                ids.end());
  pair.true_resemblance = static_cast<double>(shared) /
                          static_cast<double>(2 * size - shared);
  pair.true_containment_b =
      static_cast<double>(shared) / static_cast<double>(size);
  return pair;
}

TEST(MinwiseSketch, IdenticalSetsResembleCompletely) {
  const auto pair = make_set_pair(500, 0, 1);
  MinwiseSketch a(kUniverse), b(kUniverse);
  a.update_all(pair.a);
  b.update_all(pair.a);
  EXPECT_DOUBLE_EQ(MinwiseSketch::resemblance(a, b), 1.0);
}

TEST(MinwiseSketch, DisjointSetsResembleRarely) {
  const auto pair = make_set_pair(500, 0, 2);
  MinwiseSketch a(kUniverse), b(kUniverse);
  a.update_all(pair.a);
  b.update_all(pair.b);
  EXPECT_LT(MinwiseSketch::resemblance(a, b), 0.08);
}

TEST(MinwiseSketch, EmptySketchesResembleByConvention) {
  MinwiseSketch a(kUniverse), b(kUniverse);
  EXPECT_DOUBLE_EQ(MinwiseSketch::resemblance(a, b), 1.0);
}

TEST(MinwiseSketch, RequiresAtLeastOnePermutation) {
  EXPECT_THROW(MinwiseSketch(kUniverse, 0), std::invalid_argument);
}

TEST(MinwiseSketch, IncompatibleSketchesThrow) {
  MinwiseSketch a(kUniverse, 128), b(kUniverse, 64);
  EXPECT_THROW(MinwiseSketch::resemblance(a, b), std::invalid_argument);
  MinwiseSketch c(kUniverse, 128, /*seed=*/7);
  EXPECT_THROW(MinwiseSketch::resemblance(a, c), std::invalid_argument);
}

TEST(MinwiseSketch, OrderOfUpdatesIrrelevant) {
  auto keys = make_set_pair(300, 0, 3).a;
  MinwiseSketch forward(kUniverse), backward(kUniverse);
  forward.update_all(keys);
  std::reverse(keys.begin(), keys.end());
  backward.update_all(keys);
  EXPECT_EQ(forward.minima(), backward.minima());
}

/// Property sweep: the estimator should track the true resemblance within
/// the binomial standard error of 128/256 positions.
struct ResemblancePoint {
  std::size_t shared;
  std::size_t permutations;
};

class MinwiseAccuracy : public ::testing::TestWithParam<ResemblancePoint> {};

TEST_P(MinwiseAccuracy, EstimatesResemblance) {
  const auto [shared, permutations] = GetParam();
  constexpr std::size_t kSize = 1000;
  const auto pair = make_set_pair(kSize, shared, 4 + shared);
  MinwiseSketch a(kUniverse, permutations), b(kUniverse, permutations);
  a.update_all(pair.a);
  b.update_all(pair.b);
  const double estimate = MinwiseSketch::resemblance(a, b);
  const double r = pair.true_resemblance;
  const double sigma =
      std::sqrt(r * (1 - r) / static_cast<double>(permutations));
  EXPECT_NEAR(estimate, r, 4 * sigma + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    SharedFractionSweep, MinwiseAccuracy,
    ::testing::Values(ResemblancePoint{0, 128}, ResemblancePoint{100, 128},
                      ResemblancePoint{250, 128}, ResemblancePoint{500, 128},
                      ResemblancePoint{750, 128}, ResemblancePoint{900, 128},
                      ResemblancePoint{1000, 128}, ResemblancePoint{500, 256},
                      ResemblancePoint{250, 64}));

TEST(MinwiseSketch, UnionCombinationMatchesDirectSketch) {
  // "The sketch for the union of A_F and B_F is easily found by taking the
  // coordinate-wise minimum of v(A) and v(B)."
  const auto pair = make_set_pair(400, 100, 5);
  MinwiseSketch a(kUniverse), b(kUniverse), direct(kUniverse);
  a.update_all(pair.a);
  b.update_all(pair.b);
  direct.update_all(pair.a);
  direct.update_all(pair.b);
  const auto combined = MinwiseSketch::combine_union(a, b);
  EXPECT_EQ(combined.minima(), direct.minima());
}

TEST(MinwiseSketch, ThirdPeerOverlapViaUnion) {
  // Estimate overlap of C with A ∪ B using only the three sketches.
  util::Xoshiro256 rng(6);
  const auto ids = util::sample_without_replacement(kUniverse, 3000, rng);
  const std::vector<std::uint64_t> a(ids.begin(), ids.begin() + 1000);
  const std::vector<std::uint64_t> b(ids.begin() + 500, ids.begin() + 1500);
  // C straddles A ∪ B and fresh ids: |C ∩ (A∪B)| = 750 of 1500.
  const std::vector<std::uint64_t> c(ids.begin() + 750, ids.begin() + 2250);
  MinwiseSketch sa(kUniverse, 512), sb(kUniverse, 512), sc(kUniverse, 512);
  sa.update_all(a);
  sb.update_all(b);
  sc.update_all(c);
  const auto sab = MinwiseSketch::combine_union(sa, sb);
  // |C ∩ (A∪B)| = 750, |C ∪ (A∪B)| = 1500 + 1500 - 750.
  const double truth = 750.0 / 2250.0;
  EXPECT_NEAR(MinwiseSketch::resemblance(sab, sc), truth, 0.08);
}

TEST(MinwiseSketch, SerializationRoundTrip) {
  const auto pair = make_set_pair(200, 0, 7);
  MinwiseSketch sketch(kUniverse);
  sketch.update_all(pair.a);
  const auto bytes = sketch.serialize();
  const auto restored = MinwiseSketch::deserialize(bytes);
  EXPECT_EQ(restored.minima(), sketch.minima());
  EXPECT_EQ(restored.universe_size(), sketch.universe_size());
}

/// The position-by-position loop resemblance ran before its count was
/// widened: the reference every variant must reproduce exactly.
struct LoopCounts {
  std::size_t live = 0;
  std::size_t matches = 0;
};

LoopCounts loop_counts(const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b) {
  LoopCounts counts;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const bool a_empty = a[j] == MinwiseSketch::kEmpty;
    const bool b_empty = b[j] == MinwiseSketch::kEmpty;
    if (a_empty && b_empty) continue;
    ++counts.live;
    if (a[j] == b[j]) ++counts.matches;
  }
  return counts;
}

double loop_resemblance(const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
  const LoopCounts counts = loop_counts(a, b);
  if (counts.live == 0) return 1.0;
  return static_cast<double>(counts.matches) /
         static_cast<double>(counts.live);
}

/// The wire form of a sketch over kUniverse with this seed and minima.
std::vector<std::uint8_t> sketch_payload(
    std::uint64_t seed, const std::vector<std::uint64_t>& minima) {
  util::ByteWriter out;
  out.u64(kUniverse);
  out.u64(seed);
  out.varint(minima.size());
  out.u64s(minima);
  return out.take();
}

/// A sketch over kUniverse holding exactly `minima`, decoded the way a
/// received one is (after a local sketch has drawn its family).
MinwiseSketch sketch_with_minima(const std::vector<std::uint64_t>& minima) {
  const MinwiseSketch local(kUniverse, minima.size());
  return MinwiseSketch::deserialize(
      sketch_payload(MinwiseSketch::kSharedSeed, minima));
}

/// Two minima arrays of length n: each side is empty at a position with
/// the given percent chance, and where both are live, b copies a's value
/// with chance pct_equal.
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> draw_minima(
    std::size_t n, util::Xoshiro256& rng, std::uint64_t pct_a_empty,
    std::uint64_t pct_b_empty, std::uint64_t pct_equal) {
  std::vector<std::uint64_t> a(n), b(n);
  for (std::size_t j = 0; j < n; ++j) {
    const bool a_empty = rng.next_below(100) < pct_a_empty;
    const bool b_empty = rng.next_below(100) < pct_b_empty;
    a[j] = a_empty ? MinwiseSketch::kEmpty : rng.next_below(kUniverse);
    b[j] = b_empty ? MinwiseSketch::kEmpty
           : !a_empty && rng.next_below(100) < pct_equal
               ? a[j]
               : rng.next_below(kUniverse);
  }
  return {a, b};
}

TEST(MinwiseSketch, EveryResemblanceVariantMatchesThePositionLoop) {
  std::vector<std::pair<const char*, MatchKernel>> kernels{
      {"portable", match_minima_portable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    kernels.emplace_back("avx2", match_minima_avx2);
  }
#endif
  util::Xoshiro256 rng(0x5e7c4);
  // Lengths around the 4-minima vector step, and the default 128.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 127u,
                              128u, 129u}) {
    std::vector<std::pair<std::vector<std::uint64_t>,
                          std::vector<std::uint64_t>>>
        cases{
            draw_minima(n, rng, 100, 100, 0),  // both empty
            draw_minima(n, rng, 0, 100, 0),    // one side empty
            draw_minima(n, rng, 100, 0, 0),
            draw_minima(n, rng, 30, 30, 50),   // partly filled
            draw_minima(n, rng, 0, 0, 50),     // full
        };
    const auto partial = draw_minima(n, rng, 30, 0, 0).first;
    cases.emplace_back(partial, partial);  // identical
    // Random, with forced equal and both-empty positions.
    for (int trial = 0; trial < 20; ++trial) {
      cases.push_back(draw_minima(n, rng, 50, 50, 50));
    }
    for (const auto& [a, b] : cases) {
      const LoopCounts expected = loop_counts(a, b);
      for (const auto& [name, kernel] : kernels) {
        const MinimaMatch match = kernel(a.data(), b.data(), n);
        EXPECT_EQ(n - match.both_empty, expected.live) << name << ", n " << n;
        EXPECT_EQ(match.equal - match.both_empty, expected.matches)
            << name << ", n " << n;
      }
      EXPECT_EQ(MinwiseSketch::resemblance(sketch_with_minima(a),
                                           sketch_with_minima(b)),
                loop_resemblance(a, b))
          << "n " << n;
    }
  }
}

/// The `%` formula the sketch's permutations evaluate without dividing,
/// the uint64 wrap of the inner sum included.
std::uint64_t permute_by_division(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t p, std::uint64_t x) {
  const auto product = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * (x % p) % p);
  return (product + b) % p;
}

TEST(MinwiseSketch, DivisionFreePermutationMatchesTheRemainderFormula) {
  // Moduli from 2 (normalized by a 62-bit shift) through the engine's
  // next_prime(2^63) to the largest 64-bit prime, where a*x mod p + b
  // wraps at 2^64. Keys 0, p-1, p and p+1 sit on the one-subtraction
  // boundary of a modulus of 2^63 or more.
  util::Xoshiro256 rng(0xd1f5);
  for (const std::uint64_t p :
       {util::next_prime(2), util::next_prime(std::uint64_t{1} << 32),
        util::next_prime(std::uint64_t{1} << 62),
        util::next_prime(std::uint64_t{1} << 63),
        ~std::uint64_t{0} - 58}) {
    const util::ModularReducer reducer(p);
    std::vector<std::uint64_t> keys{0, p - 1, p, p + 1, ~std::uint64_t{0}};
    for (int i = 0; i < 500; ++i) keys.push_back(rng());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> coefficients{
        {1, 0}, {p - 1, p - 1}, {1, p - 1}, {p - 1, 0}};
    for (int i = 0; i < 40; ++i) {
      coefficients.emplace_back(1 + rng.next_below(p - 1), rng.next_below(p));
    }
    for (const auto& [a, b] : coefficients) {
      const util::LinearPermutation permutation(a, b, reducer);
      for (const std::uint64_t x : keys) {
        ASSERT_EQ(permutation(x), permute_by_division(a, b, p, x))
            << "p " << p << ", a " << a << ", b " << b << ", x " << x;
      }
    }
    // The 2-by-1 remainder over its whole contract, high words up to
    // p - 1. High words near p - 1 exercise the second correction (the
    // quotient estimate one low), which the permutation's own inputs did
    // not reach in random trials.
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t hi =
          i % 2 == 0
              ? p - 1 - rng.next_below(std::min<std::uint64_t>(p, 1024))
              : rng.next_below(p);
      const std::uint64_t lo = i % 3 == 0 ? ~std::uint64_t{0} : rng();
      const auto dividend =
          (static_cast<unsigned __int128>(hi) << 64) | lo;
      ASSERT_EQ(reducer.reduce(hi, lo),
                static_cast<std::uint64_t>(dividend % p))
          << "p " << p << ", hi " << hi << ", lo " << lo;
    }
  }
}

TEST(MinwiseSketch, ResemblanceDispatchPicksAvx2IffTheCpuHasIt) {
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2");
  EXPECT_EQ(match_minima_kernel() == match_minima_avx2, avx2);
#else
  EXPECT_EQ(match_minima_kernel(), match_minima_portable);
#endif
}

TEST(MinwiseSketch, DecodingForgedGeometriesLeavesTheFamilyCacheUnchanged) {
  // Sketch frames arrive from the network with their own universe, count
  // and seed. Decoding one must not draw and cache a permutation family
  // for a geometry no local sketch uses: that cache is never pruned.
  const MinwiseSketch local(kUniverse);
  const std::size_t cached = util::permutation_family_cache_size();
  const std::vector<std::uint64_t> minima(local.permutation_count());
  // Seeds no sketch in this binary uses.
  constexpr std::uint64_t kForged = 0xf06ed00000000000ULL;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_THROW(
        MinwiseSketch::deserialize(sketch_payload(kForged + i, minima)),
        std::invalid_argument);
  }
  // A count of 0 is rejected before any lookup.
  EXPECT_THROW(MinwiseSketch::deserialize(sketch_payload(kForged + 1000, {})),
               std::invalid_argument);
  EXPECT_EQ(util::permutation_family_cache_size(), cached);
  // The geometry a local sketch uses still decodes.
  EXPECT_EQ(MinwiseSketch::deserialize(local.serialize()).minima(),
            local.minima());
}

TEST(MinwiseSketch, DefaultSketchFitsOnePacket) {
  // The paper's calling-card constraint: the sketch travels in one 1 KB
  // packet.
  MinwiseSketch sketch(kUniverse);
  sketch.update(1);
  EXPECT_LE(sketch.serialize().size(),
            util::kPacketPayloadBytes + 24 /* header */);
  EXPECT_EQ(sketch.permutation_count() * 8, 1024u);
}

TEST(ContainmentConversion, RoundTripsThroughResemblance) {
  // Equal sizes: any containment in [0, 1] is feasible.
  for (const double c : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double r = resemblance_from_containment(c, 1000, 1000);
    EXPECT_NEAR(containment_from_resemblance(r, 1000, 1000), c, 1e-9);
  }
  // Unequal sizes: containment is capped at |A| / |B| (the intersection
  // cannot exceed the smaller set).
  for (const double c : {0.0, 0.1, 0.25, 0.5, 0.66}) {
    const std::size_t size_a = 800, size_b = 1200;
    const double r = resemblance_from_containment(c, size_a, size_b);
    EXPECT_NEAR(containment_from_resemblance(r, size_a, size_b), c, 1e-9);
  }
}

TEST(ContainmentConversion, KnownValues) {
  // |A| = |B| = n, half shared: r = (n/2) / (3n/2) = 1/3, c = 1/2.
  EXPECT_NEAR(containment_from_resemblance(1.0 / 3.0, 1000, 1000), 0.5, 1e-9);
  // Identical sets.
  EXPECT_NEAR(containment_from_resemblance(1.0, 1000, 1000), 1.0, 1e-9);
  // Disjoint sets.
  EXPECT_NEAR(containment_from_resemblance(0.0, 1000, 1000), 0.0, 1e-9);
}

TEST(RandomSample, EstimatesContainment) {
  const auto pair = make_set_pair(2000, 1000, 8);
  util::Xoshiro256 rng(9);
  const RandomSample sample(pair.b, 128, rng);
  const std::unordered_set<std::uint64_t> a_set(pair.a.begin(), pair.a.end());
  // Fraction of B's samples found in A estimates |A ∩ B| / |B| = 0.5.
  EXPECT_NEAR(sample.estimate_containment(a_set), 0.5, 0.15);
}

TEST(RandomSample, SampleSizeAndWireBudget) {
  const auto pair = make_set_pair(500, 0, 10);
  util::Xoshiro256 rng(11);
  const RandomSample sample(pair.a, 128, rng);
  EXPECT_EQ(sample.samples().size(), 128u);
  EXPECT_EQ(sample.source_size(), 500u);
  // 128 64-bit keys ~ 1 KB: the paper's "a 1KB packet can hold roughly 128
  // keys".
  EXPECT_LE(sample.wire_bytes(), 1040u);
}

TEST(RandomSample, EmptySourceThrows) {
  util::Xoshiro256 rng(12);
  EXPECT_THROW(RandomSample({}, 10, rng), std::invalid_argument);
}

TEST(ModKSample, SampleSizeScalesWithK) {
  const auto pair = make_set_pair(4000, 0, 13);
  const ModKSample s8(pair.a, 8);
  const ModKSample s32(pair.a, 32);
  EXPECT_NEAR(static_cast<double>(s8.samples().size()), 4000.0 / 8, 150.0);
  EXPECT_NEAR(static_cast<double>(s32.samples().size()), 4000.0 / 32, 60.0);
}

TEST(ModKSample, EstimatesContainmentFromSamplesAlone) {
  const auto pair = make_set_pair(4000, 2000, 14);
  const ModKSample a(pair.a, 16);
  const ModKSample b(pair.b, 16);
  // |A ∩ B| / |B| = 0.5, estimated purely from the two small samples.
  EXPECT_NEAR(ModKSample::estimate_containment(a, b), 0.5, 0.15);
}

TEST(ModKSample, MismatchedModuliThrow) {
  const auto pair = make_set_pair(100, 0, 15);
  const ModKSample a(pair.a, 8);
  const ModKSample b(pair.b, 16);
  EXPECT_THROW(ModKSample::estimate_containment(a, b), std::invalid_argument);
}

TEST(ModKSample, ZeroModulusThrows) {
  EXPECT_THROW(ModKSample({1, 2, 3}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace icd::sketch
