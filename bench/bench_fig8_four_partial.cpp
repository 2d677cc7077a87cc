// Figure 8: "Relative transfer rates using four partial senders, compared
// with a single full sender." As Figure 7 with four senders; the paper
// sweeps correlation to 0.5 in both scenarios.
//
// Expected shape (paper): four partial senders push the relative rate well
// above 2x ("while not as efficient as full senders, these flows are
// additive as with a true digital fountain"), with informed strategies
// closest to additive.
#include "bench_common.hpp"

namespace {

void run_scenario(const char* name, double stretch, double max_correlation) {
  using namespace icd;
  using namespace icd::bench;

  overlay::SimConfig config;
  config.n = 1000;
  constexpr std::size_t kTrials = 5;

  print_header(
      std::string("Figure 8: relative rate, four partial senders — ") + name);
  print_strategy_columns();
  for (const double target_corr : correlation_sweep(max_correlation)) {
    double realized = target_corr;
    std::vector<double> values;
    for (const auto strategy : overlay::kAllStrategies) {
      const double rate = average_over_trials(
          kTrials, 31415, [&](std::uint64_t seed) {
            util::Xoshiro256 rng(seed);
            const auto scenario = overlay::make_multi_scenario(
                config.n, stretch, target_corr, 4, rng);
            realized = scenario.correlation;
            overlay::SimConfig c = config;
            c.seed = seed ^ 0xcafe;
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
               0.50);
  run_scenario("stretched (1.5n distinct symbols)",
               icd::overlay::kStretchedStretch, 0.50);
  return 0;
}
