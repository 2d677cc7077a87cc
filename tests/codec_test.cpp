// Tests for icd::codec: degree distributions, block source, encoder,
// peeling decoder, recoder — the digital-fountain substrate of Sections 2.3
// and 5.4.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "codec/block_source.hpp"
#include "codec/decoder.hpp"
#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/peeling.hpp"
#include "codec/recoder.hpp"
#include "util/random.hpp"

namespace icd::codec {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

TEST(DegreeDistribution, IdealSolitonSumsToOne) {
  const auto dist = DegreeDistribution::ideal_soliton(100);
  double total = 0;
  for (std::size_t d = 1; d <= 100; ++d) total += dist.pmf(d);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DegreeDistribution, IdealSolitonShape) {
  const auto dist = DegreeDistribution::ideal_soliton(100);
  EXPECT_NEAR(dist.pmf(1), 0.01, 1e-9);
  EXPECT_NEAR(dist.pmf(2), 0.5, 1e-9);
  EXPECT_NEAR(dist.pmf(3), 1.0 / 6, 1e-9);
}

TEST(DegreeDistribution, RobustSolitonBoostsLowAndSpikeDegrees) {
  const auto ideal = DegreeDistribution::ideal_soliton(1000);
  const auto robust = DegreeDistribution::robust_soliton(1000);
  // The robust distribution moves mass toward degree 1 (and the spike).
  EXPECT_GT(robust.pmf(1), ideal.pmf(1));
}

TEST(DegreeDistribution, MeanMatchesSampleMean) {
  const auto dist = DegreeDistribution::robust_soliton(5000);
  util::Xoshiro256 rng(1);
  double total = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    total += static_cast<double>(dist.sample(rng));
  }
  EXPECT_NEAR(total / kDraws, dist.mean(), dist.mean() * 0.05);
}

TEST(DegreeDistribution, PaperScaleMeanDegree) {
  // Section 6.1: "The degree distribution used had an average degree of 11
  // for the encoded symbols" at 23,968 source blocks. Robust soliton at
  // that scale lands in the same regime.
  const auto dist = DegreeDistribution::robust_soliton(23968);
  EXPECT_GT(dist.mean(), 7.0);
  EXPECT_LT(dist.mean(), 16.0);
}

TEST(DegreeDistribution, TruncationCapsAndRenormalizes) {
  const auto dist = DegreeDistribution::robust_soliton(1000).truncated(50);
  EXPECT_EQ(dist.max_degree(), 50u);
  double total = 0;
  for (std::size_t d = 1; d <= 50; ++d) total += dist.pmf(d);
  EXPECT_NEAR(total, 1.0, 1e-9);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(dist.sample(rng), 50u);
}

TEST(DegreeDistribution, ConstantDistribution) {
  const auto dist = DegreeDistribution::constant(7);
  EXPECT_DOUBLE_EQ(dist.mean(), 7.0);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 7u);
}

TEST(DegreeDistribution, RejectsBadInput) {
  EXPECT_THROW(DegreeDistribution({}), std::invalid_argument);
  EXPECT_THROW(DegreeDistribution({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DegreeDistribution({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(DegreeDistribution::ideal_soliton(0), std::invalid_argument);
  EXPECT_THROW(DegreeDistribution::constant(0), std::invalid_argument);
}

TEST(BlockSource, SplitsAndPads) {
  const auto content = random_content(1000, 4);
  const BlockSource source(content, 64);
  EXPECT_EQ(source.block_count(), 16u);  // ceil(1000/64)
  EXPECT_EQ(source.block(0).size(), 64u);
  // Final block zero-padded.
  const auto& last = source.block(15);
  for (std::size_t i = 1000 - 15 * 64; i < 64; ++i) EXPECT_EQ(last[i], 0);
}

TEST(BlockSource, RestoreRoundTrips) {
  const auto content = random_content(777, 5);
  const BlockSource source(content, 64);
  EXPECT_EQ(BlockSource::restore(source.blocks(), content.size()), content);
}

TEST(BlockSource, EmptyContentYieldsOneBlock) {
  const BlockSource source(std::vector<std::uint8_t>{}, 16);
  EXPECT_EQ(source.block_count(), 1u);
}

TEST(BlockSource, ZeroBlockSizeThrows) {
  EXPECT_THROW(BlockSource(std::vector<std::uint8_t>{1}, 0),
               std::invalid_argument);
}

TEST(XorInto, Semantics) {
  std::vector<std::uint8_t> a{1, 2, 3};
  xor_into(a, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(a, (std::vector<std::uint8_t>{0, 0, 0}));
  std::vector<std::uint8_t> empty;
  xor_into(empty, std::vector<std::uint8_t>{7, 8});
  EXPECT_EQ(empty, (std::vector<std::uint8_t>{7, 8}));
  xor_into(empty, std::vector<std::uint8_t>{});
  EXPECT_EQ(empty, (std::vector<std::uint8_t>{7, 8}));
  std::vector<std::uint8_t> mismatched{1};
  EXPECT_THROW(xor_into(mismatched, std::vector<std::uint8_t>{1, 2}),
               std::invalid_argument);
}

TEST(Encoder, NeighborsAreDeterministicAndDistinct) {
  const auto content = random_content(64 * 100, 6);
  const BlockSource source(content, 64);
  const Encoder encoder(source, DegreeDistribution::robust_soliton(100), 42);
  for (std::uint64_t id = 0; id < 200; ++id) {
    const auto n1 = encoder.neighbors(id);
    const auto n2 = encoder.neighbors(id);
    EXPECT_EQ(n1, n2);
    const std::set<std::uint32_t> unique(n1.begin(), n1.end());
    EXPECT_EQ(unique.size(), n1.size());
    for (const auto b : n1) EXPECT_LT(b, 100u);
  }
}

TEST(Encoder, PayloadIsXorOfNeighbors) {
  const auto content = random_content(64 * 20, 7);
  const BlockSource source(content, 64);
  const Encoder encoder(source, DegreeDistribution::robust_soliton(20), 43);
  const auto symbol = encoder.encode(5);
  std::vector<std::uint8_t> expected;
  for (const auto b : encoder.neighbors(5)) {
    xor_into(expected, source.block(b));
  }
  EXPECT_EQ(symbol.payload, expected);
}

TEST(Encoder, StreamsWithDistinctSeedsAreDisjoint) {
  const auto content = random_content(64 * 20, 8);
  const BlockSource source(content, 64);
  const auto dist = DegreeDistribution::robust_soliton(20);
  Encoder a(source, dist, 43, /*stream_seed=*/1);
  Encoder b(source, dist, 43, /*stream_seed=*/2);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.insert(a.next().id);
    ids.insert(b.next().id);
  }
  EXPECT_EQ(ids.size(), 200u);
}

TEST(PeelingDecoder, DirectAndCascadedRecovery) {
  PeelingDecoder<int> peeler;
  // y1 = x1; y2 = x1 ^ x2; y3 = x2 ^ x3 — the paper's substitution example.
  EXPECT_TRUE(peeler.add_equation({1}, std::vector<std::uint8_t>{0x0f}));
  EXPECT_TRUE(
      peeler.add_equation({1, 2}, std::vector<std::uint8_t>{0x0f ^ 0x35}));
  EXPECT_TRUE(
      peeler.add_equation({2, 3}, std::vector<std::uint8_t>{0x35 ^ 0x77}));
  EXPECT_EQ(peeler.known_count(), 3u);
  EXPECT_EQ(peeler.value(1), (std::vector<std::uint8_t>{0x0f}));
  EXPECT_EQ(peeler.value(2), (std::vector<std::uint8_t>{0x35}));
  EXPECT_EQ(peeler.value(3), (std::vector<std::uint8_t>{0x77}));
}

TEST(PeelingDecoder, BufferedEquationResolvesLater) {
  PeelingDecoder<int> peeler;
  EXPECT_FALSE(peeler.add_equation(
      {1, 2}, std::vector<std::uint8_t>{0x03}));  // buffered
  EXPECT_EQ(peeler.buffered_count(), 1u);
  EXPECT_TRUE(peeler.mark_known(1, std::vector<std::uint8_t>{0x01}));
  EXPECT_EQ(peeler.buffered_count(), 0u);
  EXPECT_EQ(peeler.value(2), (std::vector<std::uint8_t>{0x02}));
}

TEST(PeelingDecoder, RedundantEquationsCounted) {
  PeelingDecoder<int> peeler;
  peeler.mark_known(1, std::vector<std::uint8_t>{0x01});
  peeler.mark_known(2, std::vector<std::uint8_t>{0x02});
  EXPECT_FALSE(peeler.add_equation({1, 2}, std::vector<std::uint8_t>{0x03}));
  EXPECT_EQ(peeler.redundant_count(), 1u);
}

TEST(PeelingDecoder, DuplicateKeysCancel) {
  PeelingDecoder<int> peeler;
  // x1 ^ x1 ^ x2 = x2.
  EXPECT_TRUE(peeler.add_equation({1, 1, 2}, std::vector<std::uint8_t>{0x09}));
  EXPECT_TRUE(peeler.is_known(2));
  EXPECT_FALSE(peeler.is_known(1));
  EXPECT_EQ(peeler.value(2), (std::vector<std::uint8_t>{0x09}));
}

TEST(PeelingDecoder, RecoveryLogOrdersAcquisitions) {
  PeelingDecoder<int> peeler;
  peeler.mark_known(5, std::vector<std::uint8_t>{});
  peeler.add_equation({5, 6}, std::vector<std::uint8_t>{});
  ASSERT_EQ(peeler.recovery_log().size(), 2u);
  EXPECT_EQ(peeler.recovery_log()[0], 5);
  EXPECT_EQ(peeler.recovery_log()[1], 6);
}

TEST(PeelingDecoder, ValueOfUnknownThrows) {
  PeelingDecoder<int> peeler;
  EXPECT_THROW(peeler.value(1), std::out_of_range);
}

class DecoderRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DecoderRoundTrip, RecoversExactContent) {
  const std::uint32_t blocks = GetParam();
  const std::size_t block_size = 32;
  const auto content = random_content(blocks * block_size - 13, 100 + blocks);
  const BlockSource source(content, block_size);
  const auto dist = DegreeDistribution::robust_soliton(source.block_count());
  Encoder encoder(source, dist, 1234);
  Decoder decoder(encoder.parameters(), dist);
  std::size_t received = 0;
  while (!decoder.complete()) {
    ASSERT_LT(received, 10u * blocks) << "decoder failed to converge";
    decoder.add_symbol(encoder.next());
    ++received;
  }
  EXPECT_EQ(BlockSource::restore(decoder.blocks(), content.size()), content);
  // Decoding overhead should be modest at meaningful block counts (robust
  // soliton: a few percent at large l; small l is dominated by variance).
  if (blocks >= 100) {
    EXPECT_LT(static_cast<double>(received) / blocks, 1.6);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, DecoderRoundTrip,
                         ::testing::Values(1, 2, 10, 100, 500, 2000));

TEST(Decoder, ToleratesLossAndReordering) {
  const std::size_t block_size = 16;
  const auto content = random_content(block_size * 300, 9);
  const BlockSource source(content, block_size);
  const auto dist = DegreeDistribution::robust_soliton(300);
  Encoder encoder(source, dist, 77);
  // Simulate 30% loss: drop symbols, decode from the survivors.
  util::Xoshiro256 rng(10);
  Decoder decoder(encoder.parameters(), dist);
  while (!decoder.complete()) {
    const auto symbol = encoder.next();
    if (rng.next_bool(0.30)) continue;  // lost
    decoder.add_symbol(symbol);
  }
  EXPECT_EQ(BlockSource::restore(decoder.blocks(), content.size()), content);
}

TEST(Decoder, MeasuredOverheadMatchesPaperBallpark) {
  // Section 6.1 reports 6.8% average overhead at l = 23,968. At l = 2,000
  // robust soliton costs somewhat more; assert the same order of magnitude.
  const double overhead = measure_decode_overhead(
      2000, 8, DegreeDistribution::robust_soliton(2000), 11);
  EXPECT_GT(overhead, 1.0);
  EXPECT_LT(overhead, 1.35);
}

TEST(Decoder, DegenerateDistributionFailsGracefully) {
  // All-degree-2 symbols can never start peeling.
  EXPECT_THROW(
      measure_decode_overhead(50, 8, DegreeDistribution::constant(2), 12),
      std::runtime_error);
}

TEST(DecodingTarget, EqualsBothFormerRoundingsUpToAMillion) {
  // The completion rules once rounded 1.07 * n up with two different
  // slacks; the one shared rule must agree with both.
  static_assert(kDecodeOverhead == 1.07);
  std::size_t mismatches = 0;
  for (std::size_t n = 0; n <= 1'000'000; ++n) {
    const double scaled = 1.07 * static_cast<double>(n);
    const std::size_t target = decoding_target(n);
    if (target != static_cast<std::size_t>(scaled + 0.999) ||
        target != static_cast<std::size_t>(scaled + 0.999999)) {
      if (++mismatches <= 5) ADD_FAILURE() << "n = " << n;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Whole products stay whole; anything else rounds up.
  EXPECT_EQ(decoding_target(0), 0u);
  EXPECT_EQ(decoding_target(1), 2u);
  EXPECT_EQ(decoding_target(100), 107u);
  EXPECT_EQ(decoding_target(150), 161u);
  EXPECT_EQ(decoding_target(1000), 1070u);
  EXPECT_EQ(decoding_target(1900), 2033u);  // 1.07 * 1900 > 2033 in binary
}

TEST(RecodeDegree, OptimalDegreeGrowsWithCorrelation) {
  // d ~ 1/(1-c): one expected-unknown constituent.
  EXPECT_EQ(optimal_recode_degree(1000, 0.0), 1u);
  EXPECT_EQ(optimal_recode_degree(1000, 0.5), 2u);  // ceil(501/500) = 2
  EXPECT_GE(optimal_recode_degree(1000, 0.9), 10u);
  EXPECT_EQ(optimal_recode_degree(1000, 1.0), kDefaultRecodeDegreeLimit);
}

TEST(RecodeDegree, MonotoneInCorrelation) {
  std::size_t previous = 0;
  for (double c = 0.0; c < 0.99; c += 0.05) {
    const auto d = optimal_recode_degree(10000, c);
    EXPECT_GE(d, previous);
    previous = d;
  }
}

TEST(RecodeDegree, MinwiseScalingMatchesPaperRule) {
  // "generate a recoded symbol of degree floor(d / (1-c))".
  EXPECT_EQ(minwise_recode_degree(4, 0.0), 4u);
  EXPECT_EQ(minwise_recode_degree(4, 0.5), 8u);
  EXPECT_EQ(minwise_recode_degree(4, 0.75), 16u);
  EXPECT_EQ(minwise_recode_degree(4, 0.95), 50u);  // capped
  EXPECT_EQ(minwise_recode_degree(4, 1.0), 50u);
}

TEST(RecodeDegree, DrawRespectsLowerLimitAndCap) {
  const auto dist =
      DegreeDistribution::robust_soliton(1000).truncated(50);
  util::Xoshiro256 rng(13);
  for (int i = 0; i < 500; ++i) {
    const auto d = draw_recode_degree(dist, 1000, 0.9, rng);
    EXPECT_GE(d, optimal_recode_degree(1000, 0.9));
    EXPECT_LE(d, 50u);
  }
}

TEST(RecodeDecoder, PaperSubstitutionExample) {
  // Section 5.4.2's worked example: z1 = y13, z2 = y5 ^ y8, z3 = y5 ^ y13.
  // "A peer that receives z1, z2 and z3 can immediately recover y13. Then
  // by substituting y13 into z3, the peer can recover y5, and similarly,
  // can recover y8 from z2."
  RecodeDecoder decoder;
  const std::vector<std::uint8_t> y5{0x05}, y8{0x08}, y13{0x0d};
  std::vector<std::uint8_t> z2 = y5;
  xor_into(z2, y8);
  std::vector<std::uint8_t> z3 = y5;
  xor_into(z3, y13);
  EXPECT_TRUE(decoder.add_recoded(RecodedSymbol{{13}, y13}));       // z1
  EXPECT_FALSE(decoder.add_recoded(RecodedSymbol{{5, 8}, z2}));     // z2 buffers
  EXPECT_TRUE(decoder.add_recoded(RecodedSymbol{{5, 13}, z3}));     // z3 cascades
  EXPECT_EQ(decoder.symbol_count(), 3u);
  EXPECT_EQ(decoder.payload(5), y5);
  EXPECT_EQ(decoder.payload(8), y8);
  EXPECT_EQ(decoder.payload(13), y13);
}

TEST(RecodeDecoder, EndToEndRecodedTransferDecodesFile) {
  // A partial sender holding 60% of the symbols recodes to a receiver
  // holding a different 60%; the receiver ends up able to decode the file.
  const std::size_t blocks = 200, block_size = 16;
  const auto content = random_content(blocks * block_size, 17);
  const BlockSource source(content, block_size);
  const auto dist = DegreeDistribution::robust_soliton(blocks);
  Encoder encoder(source, dist, 555);

  std::vector<EncodedSymbol> pool;
  for (std::size_t i = 0; i < blocks * 2; ++i) pool.push_back(encoder.next());

  // Receiver holds the first 40%, sender the remainder.
  RecodeDecoder receiver;
  Decoder block_decoder(encoder.parameters(), dist);
  std::size_t processed = 0;
  const std::size_t receiver_count = pool.size() * 2 / 5;
  for (std::size_t i = 0; i < receiver_count; ++i) {
    receiver.add_held_symbol(pool[i]);
  }
  const std::span<const EncodedSymbol> sender_set(
      pool.begin() + static_cast<std::ptrdiff_t>(receiver_count), pool.end());
  // The sender's blend: XOR of `degree` distinct held symbols.
  const auto recode = [&sender_set](std::size_t degree,
                                    util::Xoshiro256& rng) {
    RecodedSymbol symbol;
    for (const std::uint64_t pick :
         util::sample_without_replacement(sender_set.size(), degree, rng)) {
      symbol.constituents.push_back(sender_set[pick].id);
      xor_into(symbol.payload, sender_set[pick].payload);
    }
    std::sort(symbol.constituents.begin(), symbol.constituents.end());
    return symbol;
  };

  const auto recode_dist =
      DegreeDistribution::robust_soliton(sender_set.size()).truncated(50);
  util::Xoshiro256 rng(18);
  std::size_t sent = 0;
  while (!block_decoder.complete() && sent < 20 * blocks) {
    receiver.add_recoded(recode(recode_dist.sample(rng), rng));
    ++sent;
    const auto& log = receiver.acquisition_log();
    while (processed < log.size() && !block_decoder.complete()) {
      const auto id = log[processed++];
      block_decoder.add_symbol(EncodedSymbol{id, receiver.payload(id)});
    }
  }
  ASSERT_TRUE(block_decoder.complete());
  EXPECT_EQ(BlockSource::restore(block_decoder.blocks(), content.size()),
            content);
}

}  // namespace
}  // namespace icd::codec
