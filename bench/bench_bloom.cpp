// E1 (Section 5.2): the Bloom filter false-positive table at the paper's
// two operating points, plus micro-benchmarks of insert, query and
// serialize.
//
// Paper: "using just four bits per element and three hash functions yields a
// false positive probability of 14.7%; using eight bits per element and five
// hash functions yields a false positive probability of 2.2%."
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "filter/bloom.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  return keys;
}

void print_fp_table() {
  constexpr std::size_t n = 10000;
  struct Row {
    double bits;
    std::size_t hashes;
    double paper;
  };
  const Row rows[] = {{4.0, 3, 0.147}, {8.0, 5, 0.022}};

  std::printf("\n=== Section 5.2: Bloom filter false-positive rates (n=%zu) "
              "===\n",
              n);
  std::printf("%12s %8s %10s %10s %10s\n", "bits/elt", "hashes", "formula",
              "measured", "paper");
  for (const auto& row : rows) {
    const auto m = static_cast<std::size_t>(row.bits * n);
    filter::BloomFilter filter(m, row.hashes);
    filter.insert_all(random_keys(n, 1));
    util::Xoshiro256 rng(2);
    std::size_t fp = 0;
    constexpr std::size_t kProbes = 200000;
    for (std::size_t i = 0; i < kProbes; ++i) {
      if (filter.contains(rng())) ++fp;
    }
    std::printf("%12.0f %8zu %10.4f %10.4f %10.3f\n", row.bits, row.hashes,
                filter::BloomFilter::fp_rate(m, n, row.hashes),
                static_cast<double>(fp) / kProbes, row.paper);
  }

  std::printf("\n");
}

void BM_BloomInsert(benchmark::State& state) {
  const auto keys = random_keys(10000, 3);
  for (auto _ : state) {
    auto filter = filter::BloomFilter::with_bits_per_element(keys.size(), 8.0);
    filter.insert_all(keys);
    benchmark::DoNotOptimize(filter);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  const auto keys = random_keys(10000, 4);
  auto filter = filter::BloomFilter::with_bits_per_element(keys.size(), 8.0);
  filter.insert_all(keys);
  const auto probes = random_keys(10000, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.contains(probes[i++ % probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

void BM_BloomSerialize(benchmark::State& state) {
  const auto keys = random_keys(10000, 6);
  auto filter = filter::BloomFilter::with_bits_per_element(keys.size(), 8.0);
  filter.insert_all(keys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.serialize());
  }
}
BENCHMARK(BM_BloomSerialize);

}  // namespace

int main(int argc, char** argv) {
  print_fp_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
