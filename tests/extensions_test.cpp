// Tests for the library's extension beyond the paper's minimum:
// inactivation decoding.
#include <gtest/gtest.h>

#include <vector>

#include "codec/inactivation.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

// --- Inactivation decoding -------------------------------------------------

TEST(InactivationDecoder, DecodesWithExactlyNSymbolsUsually) {
  // Peeling alone needs (1 + eps) l symbols; with Gaussian elimination the
  // residual solves as soon as the equations have full rank, which for
  // robust-soliton equations happens within a handful of symbols of l.
  const std::uint32_t blocks = 300;
  const auto content = random_content(blocks * 8, 1);
  const codec::BlockSource source(content, 8);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 555);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);
  while (!decoder.complete()) {
    decoder.add_symbol(encoder.next());
    if (decoder.received_count() >= blocks) decoder.try_solve();
    ASSERT_LT(decoder.received_count(), 2 * blocks);
  }
  EXPECT_EQ(codec::BlockSource::restore(decoder.blocks(), content.size()),
            content);
  // Full-rank typically within ~2% of l.
  EXPECT_LE(decoder.received_count(), blocks + blocks / 10);
}

TEST(InactivationDecoder, OverheadBeatsPurePeeling) {
  const std::uint32_t blocks = 500;
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  double peeling = 0, inactivation = 0;
  for (int t = 0; t < 3; ++t) {
    peeling += codec::measure_decode_overhead(blocks, 8, dist, 100 + t);
    inactivation +=
        codec::measure_inactivation_overhead(blocks, 8, dist, 100 + t);
  }
  EXPECT_LT(inactivation, peeling);
  EXPECT_LT(inactivation / 3, 1.05);  // within ~5% of optimal
}

TEST(InactivationDecoder, TrySolveBeforeEnoughSymbolsIsFalse) {
  const std::uint32_t blocks = 100;
  const auto content = random_content(blocks * 8, 2);
  const codec::BlockSource source(content, 8);
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  codec::Encoder encoder(source, dist, 7);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);
  for (std::uint32_t i = 0; i < blocks / 2; ++i) {
    decoder.add_symbol(encoder.next());
  }
  EXPECT_FALSE(decoder.try_solve());
  EXPECT_FALSE(decoder.complete());
  EXPECT_THROW(decoder.blocks(), std::logic_error);
}

TEST(InactivationDecoder, SolvesDegenerateDistributionPeelingCannot) {
  // All-degree-3 equations never peel from scratch (no degree-1 symbols),
  // but a random 3-uniform system reaches full rank quickly; GE finishes
  // where the substitution rule starves. (Degree 2 would NOT work: all
  // even-weight rows span a subspace of rank at most l - 1.)
  const std::uint32_t blocks = 24;
  const auto content = random_content(blocks * 4, 3);
  const codec::BlockSource source(content, 4);
  const auto dist = codec::DegreeDistribution::constant(3);
  codec::Encoder encoder(source, dist, 99);
  codec::InactivationDecoder decoder(encoder.parameters(), dist);
  for (int i = 0; i < 400 && !decoder.try_solve(); ++i) {
    decoder.add_symbol(encoder.next());
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(codec::BlockSource::restore(decoder.blocks(), content.size()),
            content);
}

}  // namespace
}  // namespace icd
