// Property-based and cross-validation suites: randomized inputs checked
// against invariants or against an independent reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/peeling.hpp"
#include "filter/bloom.hpp"
#include "reconcile/cpi.hpp"
#include "reconcile/reconciler.hpp"
#include "sketch/minwise.hpp"
#include "util/random.hpp"
#include "wire/message.hpp"

namespace icd {
namespace {

// --- Peeling decoder vs brute-force GF(2) reference -------------------------

/// Reference solver: full Gauss-Jordan over GF(2) on byte payloads.
/// Returns the set of variables with a uniquely determined value.
std::map<int, std::uint8_t> reference_solve(
    std::vector<std::pair<std::vector<int>, std::uint8_t>> equations,
    const std::vector<int>& variables) {
  std::map<int, std::size_t> column;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    column[variables[i]] = i;
  }
  const std::size_t n = variables.size();
  struct Row {
    std::vector<int> bits;
    std::uint8_t rhs;
  };
  std::vector<Row> rows;
  for (auto& [keys, rhs] : equations) {
    Row row{std::vector<int>(n, 0), rhs};
    for (const int k : keys) row.bits[column.at(k)] ^= 1;
    rows.push_back(std::move(row));
  }
  std::vector<std::ptrdiff_t> pivot_of(n, -1);
  std::size_t next = 0;
  for (std::size_t col = 0; col < n && next < rows.size(); ++col) {
    std::size_t pivot = next;
    while (pivot < rows.size() && !rows[pivot].bits[col]) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[pivot], rows[next]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r != next && rows[r].bits[col]) {
        for (std::size_t c = 0; c < n; ++c) rows[r].bits[c] ^= rows[next].bits[c];
        rows[r].rhs ^= rows[next].rhs;
      }
    }
    pivot_of[col] = static_cast<std::ptrdiff_t>(next);
    ++next;
  }
  std::map<int, std::uint8_t> solved;
  for (std::size_t col = 0; col < n; ++col) {
    if (pivot_of[col] < 0) continue;
    const Row& row = rows[static_cast<std::size_t>(pivot_of[col])];
    // Uniquely determined iff the pivot row touches no other free column.
    bool unique = true;
    for (std::size_t c = 0; c < n; ++c) {
      if (c != col && row.bits[c]) {
        unique = false;
        break;
      }
    }
    if (unique) solved[variables[col]] = row.rhs;
  }
  return solved;
}

TEST(PeelingVsReference, PeelingNeverContradictsGaussianElimination) {
  // Fuzz: random sparse equation systems. Everything the peeler recovers
  // must be uniquely determined, with the same value, under full GE.
  util::Xoshiro256 rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const int n_vars = 4 + static_cast<int>(rng.next_below(12));
    const int n_eqs = 2 + static_cast<int>(rng.next_below(24));
    std::vector<int> variables(static_cast<std::size_t>(n_vars));
    for (int v = 0; v < n_vars; ++v) variables[static_cast<std::size_t>(v)] = v;
    std::vector<std::uint8_t> truth(static_cast<std::size_t>(n_vars));
    for (auto& t : truth) t = static_cast<std::uint8_t>(rng());

    codec::PeelingDecoder<int> peeler;
    std::vector<std::pair<std::vector<int>, std::uint8_t>> equations;
    for (int e = 0; e < n_eqs; ++e) {
      const std::size_t degree = 1 + rng.next_below(4);
      std::set<int> keys;
      while (keys.size() < degree) {
        keys.insert(static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(n_vars))));
      }
      std::uint8_t rhs = 0;
      for (const int k : keys) rhs ^= truth[static_cast<std::size_t>(k)];
      const std::vector<int> key_vec(keys.begin(), keys.end());
      equations.emplace_back(key_vec, rhs);
      peeler.add_equation(key_vec, {rhs});
    }

    const auto reference = reference_solve(equations, variables);
    // Peeling finds a subset of the uniquely determined variables, with
    // correct values.
    for (int v = 0; v < n_vars; ++v) {
      if (peeler.is_known(v)) {
        const auto it = reference.find(v);
        ASSERT_NE(it, reference.end())
            << "peeler recovered var " << v << " that GE says is free";
        EXPECT_EQ(peeler.value(v)[0], it->second);
        EXPECT_EQ(peeler.value(v)[0], truth[static_cast<std::size_t>(v)]);
      }
    }
  }
}

// --- Wire protocol fuzz ------------------------------------------------------

TEST(WireFuzz, MutatedFramesNeverCrashOrMisparse) {
  // Random single-byte mutations of valid frames must either decode to
  // SOME frame (benign mutation) or throw invalid_argument — never crash,
  // never throw anything else.
  util::Xoshiro256 rng(303);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
  const auto frame = wire::encode_frame(codec::EncodedSymbolView(77, payload));
  std::vector<std::uint64_t> constituents;
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = frame;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      (void)wire::decode_frame(mutated, constituents);
    } catch (const std::invalid_argument&) {
      // expected for most mutations
    }
  }
}

TEST(WireFuzz, RandomBytesNeverCrash) {
  util::Xoshiro256 rng(404);
  std::vector<std::uint64_t> constituents;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng());
    try {
      (void)wire::decode_frame(junk, constituents);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(WireFuzz, TruncationsAlwaysRejected) {
  const codec::RecodedSymbol symbol{{1, 2, 3}, {9, 9, 9}};
  const auto frame = wire::encode_frame(codec::RecodedSymbolView(symbol));
  std::vector<std::uint64_t> constituents;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::vector<std::uint8_t> prefix(frame.begin(),
                                     frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)wire::decode_frame(prefix, constituents),
                 std::invalid_argument)
        << "prefix length " << len;
  }
}

// --- Bloom filter grid -------------------------------------------------------

struct BloomGridPoint {
  std::size_t bits_per_element;
  std::size_t hashes;
};

class BloomGrid : public ::testing::TestWithParam<BloomGridPoint> {};

TEST_P(BloomGrid, MeasuredFpWithinTheory) {
  const auto [bpe, k] = GetParam();
  constexpr std::size_t n = 4000;
  util::Xoshiro256 rng(505);
  filter::BloomFilter filter(bpe * n, k);
  for (std::size_t i = 0; i < n; ++i) filter.insert(rng());
  std::size_t fp = 0;
  constexpr std::size_t kProbes = 40000;
  for (std::size_t i = 0; i < kProbes; ++i) {
    if (filter.contains(rng())) ++fp;
  }
  const double measured = static_cast<double>(fp) / kProbes;
  const double theory =
      filter::BloomFilter::fp_rate(bpe * n, n, k);
  EXPECT_NEAR(measured, theory, theory * 0.3 + 0.004)
      << "bpe=" << bpe << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BloomGrid,
    ::testing::Values(BloomGridPoint{2, 1}, BloomGridPoint{2, 2},
                      BloomGridPoint{4, 2}, BloomGridPoint{4, 3},
                      BloomGridPoint{6, 4}, BloomGridPoint{8, 5},
                      BloomGridPoint{8, 6}, BloomGridPoint{12, 8},
                      BloomGridPoint{16, 11}));

// --- Decode overhead sweep ---------------------------------------------------

class OverheadSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OverheadSweep, PeelingOverheadBounded) {
  const std::uint32_t blocks = GetParam();
  const auto dist = codec::DegreeDistribution::robust_soliton(blocks);
  const double peel = codec::measure_decode_overhead(blocks, 4, dist, 606);
  EXPECT_GE(peel, 1.0);
  // Single-trial peeling overhead has high variance at small l; 1.5 is a
  // loose sanity bound, the tight averaged bounds live in bench_codec.
  EXPECT_LT(peel, 1.5);
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, OverheadSweep,
                         ::testing::Values(200, 400, 800, 1600));

// --- CPI random property sweep -----------------------------------------------

TEST(CpiProperty, RandomSizesAndDiscrepanciesReconcileExactly) {
  util::Xoshiro256 rng(707);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t shared = 20 + rng.next_below(200);
    const std::size_t a_extra = rng.next_below(12);
    const std::size_t b_extra = rng.next_below(12);
    std::set<std::uint64_t> pool;
    while (pool.size() < shared + a_extra + b_extra) {
      pool.insert(rng.next_below(reconcile::kMaxCpiKey));
    }
    std::vector<std::uint64_t> all(pool.begin(), pool.end());
    util::shuffle(all, rng);
    std::vector<std::uint64_t> a(all.begin(),
                                 all.begin() + static_cast<std::ptrdiff_t>(
                                                   shared + a_extra));
    std::vector<std::uint64_t> b(all.begin(),
                                 all.begin() + static_cast<std::ptrdiff_t>(shared));
    b.insert(b.end(), all.begin() + static_cast<std::ptrdiff_t>(shared + a_extra),
             all.end());

    const auto sketch = reconcile::make_cpi_sketch(a, a_extra + b_extra + 6);
    const auto result =
        reconcile::cpi_reconcile(b, sketch, a_extra + b_extra + 2);
    ASSERT_TRUE(result.verified)
        << "shared=" << shared << " a+=" << a_extra << " b+=" << b_extra;
    EXPECT_EQ(result.remote_only_count, a_extra);
    EXPECT_EQ(result.local_only.size(), b_extra);
    const std::set<std::uint64_t> b_only_truth(
        all.begin() + static_cast<std::ptrdiff_t>(shared + a_extra), all.end());
    for (const auto key : result.local_only) {
      EXPECT_TRUE(b_only_truth.contains(key));
    }
  }
}

// --- Reconciler facade cross-method agreement --------------------------------

TEST(FacadeProperty, ApproximateMethodsAreSubsetsOfExactTruth) {
  util::Xoshiro256 rng(808);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 200 + rng.next_below(1500);
    const std::size_t d = 5 + rng.next_below(60);
    std::set<std::uint64_t> pool;
    while (pool.size() < n + d) {
      pool.insert(rng.next_below(reconcile::kMaxCpiKey));
    }
    std::vector<std::uint64_t> remote(pool.begin(), pool.end());
    std::vector<std::uint64_t> local = remote;
    remote.resize(n);
    // local = remote + last d keys of the pool.

    reconcile::ReconcileOptions options;
    options.method = reconcile::Method::kWholeSet;
    const auto exact = reconcile::reconcile(local, remote, options);
    const std::set<std::uint64_t> truth(exact.local_minus_remote.begin(),
                                        exact.local_minus_remote.end());
    ASSERT_EQ(truth.size(), d);

    for (const auto method :
         {reconcile::Method::kBloomFilter, reconcile::Method::kArt}) {
      options.method = method;
      const auto outcome = reconcile::reconcile(local, remote, options);
      EXPECT_LE(outcome.local_minus_remote.size(), d);
      for (const auto key : outcome.local_minus_remote) {
        EXPECT_TRUE(truth.contains(key))
            << reconcile::method_name(method) << " invented a difference";
      }
    }
  }
}

// --- Min-wise sketch estimator is unbiased across set-size asymmetry ---------

struct AsymmetryPoint {
  std::size_t size_a;
  std::size_t size_b;
  std::size_t shared;
};

class MinwiseAsymmetry : public ::testing::TestWithParam<AsymmetryPoint> {};

TEST_P(MinwiseAsymmetry, ResemblanceTracksTruthForUnequalSets) {
  const auto [size_a, size_b, shared] = GetParam();
  util::Xoshiro256 rng(909);
  const auto ids = util::sample_without_replacement(
      1 << 22, size_a + size_b - shared, rng);
  sketch::MinwiseSketch a(1 << 22, 256), b(1 << 22, 256);
  for (std::size_t i = 0; i < size_a; ++i) a.update(ids[i]);
  for (std::size_t i = size_a - shared; i < ids.size(); ++i) b.update(ids[i]);
  const double truth = static_cast<double>(shared) /
                       static_cast<double>(size_a + size_b - shared);
  EXPECT_NEAR(sketch::MinwiseSketch::resemblance(a, b), truth, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Asymmetries, MinwiseAsymmetry,
    ::testing::Values(AsymmetryPoint{100, 4000, 50},
                      AsymmetryPoint{500, 2000, 400},
                      AsymmetryPoint{2000, 500, 100},
                      AsymmetryPoint{3000, 3000, 1500},
                      AsymmetryPoint{50, 50, 25}));

}  // namespace
}  // namespace icd
