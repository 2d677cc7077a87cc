// Figure 6: "Speedup in the rate of transfer of a receiver downloading from
// a full sender and a partial sender concurrently." Both senders transmit
// one symbol per round; speedup is relative to downloading from the full
// sender alone (which needs exactly `needed` rounds).
//
// Expected shape (paper): BF strategies approach 2x and stay there; random
// selection also does well (the full sender keeps the system out of the
// compact regime); the oblivious recoders (plain and minwise) lag, since
// they recode over too large a domain.
#include "bench_common.hpp"

namespace {

void run_scenario(const char* name, double stretch, double max_correlation) {
  using namespace icd;
  using namespace icd::bench;

  overlay::SimConfig config;
  config.n = 1000;
  constexpr std::size_t kTrials = 3;

  print_header(std::string("Figure 6: speedup with full + partial sender — ") +
               name);
  print_strategy_columns();
  for (const double target_corr : correlation_sweep(max_correlation)) {
    double realized = target_corr;
    std::vector<double> values;
    for (const auto strategy : overlay::kAllStrategies) {
      const double speedup = average_over_trials(
          kTrials, 777, [&](std::uint64_t seed) {
            util::Xoshiro256 rng(seed);
            const auto scenario = overlay::make_pair_scenario(
                config.n, stretch, target_corr, rng);
            realized = scenario.correlation;
            overlay::SimConfig c = config;
            c.seed = seed ^ 0xf00d;
            return overlay::run_pair_with_full_sender(scenario, strategy, c)
                .speedup();
          });
      values.push_back(speedup);
    }
    std::printf("%11.3f", realized);
    for (const double v : values) std::printf("%12.3f", v);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  run_scenario("compact (1.1n distinct symbols)", icd::overlay::kCompactStretch,
               0.45);
  run_scenario("stretched (1.5n distinct symbols)",
               icd::overlay::kStretchedStretch, 0.25);
  return 0;
}
