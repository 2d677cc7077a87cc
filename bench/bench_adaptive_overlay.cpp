// Adaptive overlay experiments (the Section 2.1 claims, quantified on the
// delivery engine):
//   B1  sketch-based admission control vs random senders
//   B2  loss tolerance: completion time vs per-link loss rate
//   B3  transience: completion under peer crash/restart
//   B4  value of adaptation: completion vs refresh interval
// Every run is 12 peers (2 of them origin-fed) downloading 400 blocks of
// 64 B over Recode/BF sessions, averaged over 5 seeds. Control cost is the
// control-frame bytes the peer links carried. Exits nonzero if any peer
// fails to complete or decodes content that differs from the origin's.
//
// Usage: bench_adaptive_overlay [--smoke]   (--smoke: one seed, short sweeps)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fault_plan.hpp"
#include "core/sharded_delivery.hpp"

namespace {

using namespace icd;

constexpr std::size_t kPeers = 12;
constexpr std::size_t kOriginFed = 2;
constexpr std::size_t kBlockSize = 64;
constexpr std::size_t kBlocks = 400;
constexpr std::size_t kMaxTicks = 60000;

core::DeliveryOptions base_options() {
  core::DeliveryOptions options;
  options.block_size = kBlockSize;
  options.refresh_interval = 25;
  options.max_peer_sessions = 2;
  return options;
}

/// Uniformly random senders: a candidate sample no larger than the session
/// cap, every candidate of which admission accepts.
core::DeliveryOptions random_senders(core::DeliveryOptions options) {
  options.admission_sample = options.max_peer_sessions;
  options.admission.max_resemblance = 1.0;
  return options;
}

/// `count` leaf crashes 80 ticks apart from tick 60, each restarted 40
/// ticks later with the working set it held.
std::shared_ptr<const core::FaultPlan> crash_restarts(std::size_t count) {
  auto plan = std::make_shared<core::FaultPlan>();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t at = 60 + 80 * i;
    const std::size_t peer = kOriginFed + (3 * i) % (kPeers - kOriginFed);
    plan->crashes.push_back({at, peer});
    plan->restarts.push_back({at + 40, peer});
  }
  return plan;
}

struct Totals {
  double mean_ticks = 0;   // summed over runs
  double last_ticks = 0;   // summed over runs
  double control_bytes = 0;
  std::size_t verified = 0;  // peers complete with the origin's content
  std::size_t peers = 0;
};

void run_overlay(core::DeliveryOptions options, std::uint64_t seed,
                 Totals& totals) {
  std::vector<std::uint8_t> content(kBlocks * kBlockSize);
  util::Xoshiro256 rng(seed);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  options.session_seed = seed;
  core::ShardedDelivery service(content, options);
  for (std::size_t p = 0; p < kPeers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p < kOriginFed);
  }
  service.run(kMaxTicks);
  double sum = 0;
  std::size_t last = 0;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    const std::size_t tick = service.peer_completion_tick(p);
    sum += static_cast<double>(tick);
    last = std::max(last, tick);
    if (service.peer_complete(p) && service.peer_content(p) == content) {
      ++totals.verified;
    }
  }
  totals.peers += service.peer_count();
  totals.mean_ticks += sum / static_cast<double>(service.peer_count());
  totals.last_ticks += static_cast<double>(last);
  totals.control_bytes +=
      static_cast<double>(service.link_totals().control_bytes);
}

/// Prints one table row per x; returns false if any peer of any run did
/// not verify.
template <typename Mutate>
bool sweep(const char* title, const char* xlabel,
           const std::vector<double>& xs, std::size_t seeds, Mutate&& mutate) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%12s %14s %14s %14s %10s\n", xlabel, "mean ticks",
              "last finisher", "ctrl bytes", "verified");
  bool ok = true;
  for (const double x : xs) {
    Totals totals;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      auto options = base_options();
      mutate(options, x);
      run_overlay(options, seed, totals);
    }
    const auto runs = static_cast<double>(seeds);
    std::printf("%12.3f %14.1f %14.1f %14.0f %7zu/%zu\n", x,
                totals.mean_ticks / runs, totals.last_ticks / runs,
                totals.control_bytes / runs, totals.verified, totals.peers);
    ok = ok && totals.verified == totals.peers;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t seeds = smoke ? 1 : 5;
  bool ok = true;

  // B1: x = 0 random senders, 1 sketch admission over the whole pool.
  ok &= sweep("B1: sketch admission control vs random senders", "admission",
              {0.0, 1.0}, seeds, [](auto& options, double x) {
                if (x < 0.5) options = random_senders(options);
              });

  ok &= sweep("B2: completion vs per-link loss rate (Recode/BF overlay)",
              "loss",
              smoke ? std::vector<double>{0.0, 0.3}
                    : std::vector<double>{0.0, 0.05, 0.1, 0.2, 0.3, 0.4},
              seeds, [](auto& options, double x) {
                options.link.loss_rate = x;
              });

  ok &= sweep("B3: completion vs crash/restarts (working set kept)",
              "crashes",
              smoke ? std::vector<double>{0.0, 2.0}
                    : std::vector<double>{0.0, 1.0, 2.0, 4.0},
              seeds, [](auto& options, double x) {
                options.faults = crash_restarts(static_cast<std::size_t>(x));
              });

  ok &= sweep("B4: completion vs refresh interval", "interval",
              smoke ? std::vector<double>{25.0, 400.0}
                    : std::vector<double>{10.0, 25.0, 50.0, 100.0, 400.0},
              seeds, [](auto& options, double x) {
                options.refresh_interval = static_cast<std::size_t>(x);
              });

  if (!ok) {
    std::fprintf(stderr, "FAIL: a peer did not complete with the origin's "
                         "content\n");
    return 1;
  }
  return 0;
}
