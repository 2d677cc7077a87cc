// Figure 7: "Relative transfer rates using two partial senders, compared
// with a single full sender." Symbols are either shared by all peers or
// unique to one; each peer starts with the same number of symbols.
//
// Expected shape (paper): partial senders are additive but below the 2x of
// two full senders; informed strategies run closer to additive; rates fall
// as the shared fraction (correlation) grows.
#include "bench_common.hpp"

namespace {

void run_scenario(const char* name, double stretch, double max_correlation,
                  std::size_t senders) {
  using namespace icd;
  using namespace icd::bench;

  overlay::SimConfig config;
  config.n = 1000;
  constexpr std::size_t kTrials = 5;

  print_header(std::string("Figure 7: relative rate, two partial senders — ") +
               name);
  print_strategy_columns();
  for (const double target_corr : correlation_sweep(max_correlation)) {
    double realized = target_corr;
    std::vector<double> values;
    for (const auto strategy : overlay::kAllStrategies) {
      const double rate = average_over_trials(
          kTrials, 4242, [&](std::uint64_t seed) {
            util::Xoshiro256 rng(seed);
            const auto scenario = overlay::make_multi_scenario(
                config.n, stretch, target_corr, senders, rng);
            realized = scenario.correlation;
            overlay::SimConfig c = config;
            c.seed = seed ^ 0xbeef;
            return overlay::run_multi_transfer(scenario, strategy, c)
                .speedup();
          });
      values.push_back(rate);
    }
    std::printf("%11.3f", realized);
    for (const double v : values) std::printf("%12.3f", v);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  run_scenario("compact (1.1n distinct symbols)", icd::overlay::kCompactStretch,
               0.30, 2);
  run_scenario("stretched (1.5n distinct symbols)",
               icd::overlay::kStretchedStretch, 0.25, 2);
  return 0;
}
