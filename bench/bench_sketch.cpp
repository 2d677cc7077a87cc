// E10 (Section 4): accuracy of the three working-set similarity estimators
// within the paper's single-1KB-packet budget and the min-wise estimate's
// std-dev by sketch size, plus sketch-update micro-benchmarks.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "sketch/minwise.hpp"
#include "sketch/sampling.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;

constexpr std::uint64_t kUniverse = 1 << 24;

struct SetPair {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  double containment;  // |A n B| / |B|
  double resemblance;
};

SetPair make_pair(std::size_t size, double containment, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto shared = static_cast<std::size_t>(containment * size);
  const auto ids =
      util::sample_without_replacement(kUniverse, 2 * size - shared, rng);
  SetPair pair;
  pair.a.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(size));
  pair.b.assign(ids.begin() + static_cast<std::ptrdiff_t>(size - shared),
                ids.end());
  pair.containment = static_cast<double>(shared) / size;
  pair.resemblance =
      static_cast<double>(shared) / static_cast<double>(2 * size - shared);
  return pair;
}

void print_estimator_table() {
  constexpr std::size_t kSetSize = 10000;
  constexpr int kTrials = 5;

  std::printf("\n=== Section 4: containment estimates, one 1KB packet per "
              "method (|A|=|B|=%zu) ===\n",
              kSetSize);
  std::printf("%8s %12s %12s %12s %12s\n", "true c", "minwise",
              "random-smpl", "mod-k", "(all est.)");
  for (const double c : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9}) {
    double mw = 0, rs = 0, mk = 0;
    for (int t = 0; t < kTrials; ++t) {
      const auto pair = make_pair(kSetSize, c, 40 + t);
      // Min-wise: 128 permutations = 1KB of 64-bit minima.
      sketch::MinwiseSketch sa(kUniverse, 128), sb(kUniverse, 128);
      sa.update_all(pair.a);
      sb.update_all(pair.b);
      mw += sketch::containment_from_resemblance(
          sketch::MinwiseSketch::resemblance(sa, sb), pair.a.size(),
          pair.b.size());
      // Random sampling: 128 keys = 1KB.
      util::Xoshiro256 rng(100 + t);
      const sketch::RandomSample sample(pair.b, 128, rng);
      const std::unordered_set<std::uint64_t> a_set(pair.a.begin(),
                                                    pair.a.end());
      rs += sample.estimate_containment(a_set);
      // Mod-k with k sized for ~128 samples.
      const sketch::ModKSample ma(pair.a, kSetSize / 128);
      const sketch::ModKSample mb(pair.b, kSetSize / 128);
      mk += sketch::ModKSample::estimate_containment(ma, mb);
    }
    std::printf("%8.2f %12.3f %12.3f %12.3f\n", c, mw / kTrials, rs / kTrials,
                mk / kTrials);
  }

  std::printf("\n=== Min-wise estimate std-dev vs sketch size (true r = "
              "1/3) ===\n");
  std::printf("%8s %12s %12s\n", "minima", "mean est", "std dev");
  for (const std::size_t perms : {32u, 64u, 128u, 256u, 512u}) {
    double total = 0, total_sq = 0;
    constexpr int kReps = 20;
    for (int t = 0; t < kReps; ++t) {
      const auto pair = make_pair(4000, 0.5, 200 + t);
      sketch::MinwiseSketch sa(kUniverse, perms), sb(kUniverse, perms);
      sa.update_all(pair.a);
      sb.update_all(pair.b);
      const double r = sketch::MinwiseSketch::resemblance(sa, sb);
      total += r;
      total_sq += r * r;
    }
    const double mean = total / kReps;
    const double var = total_sq / kReps - mean * mean;
    std::printf("%8zu %12.4f %12.4f\n", perms, mean,
                std::sqrt(std::max(0.0, var)));
  }

  std::printf("\n");
}

void BM_MinwiseUpdate(benchmark::State& state) {
  const auto perms = static_cast<std::size_t>(state.range(0));
  sketch::MinwiseSketch sketch(kUniverse, perms);
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    sketch.update(rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinwiseUpdate)->Arg(64)->Arg(128)->Arg(256);

void BM_MinwiseResemblance(benchmark::State& state) {
  const auto pair = make_pair(2000, 0.5, 2);
  sketch::MinwiseSketch sa(kUniverse, 128), sb(kUniverse, 128);
  sa.update_all(pair.a);
  sb.update_all(pair.b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::MinwiseSketch::resemblance(sa, sb));
  }
}
BENCHMARK(BM_MinwiseResemblance);

}  // namespace

int main(int argc, char** argv) {
  print_estimator_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
