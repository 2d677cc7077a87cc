// Soak armor (ctest -L soak; excluded from the tier-1 lane): a 10k-peer
// swarm under Gilbert-Elliott burst loss and membership churn runs to
// completion inside a wall-clock watchdog with zero failed sessions and a
// bounded per-peer memory footprint. This is the scale tentpole's
// endurance gate — sampled admission keeps refreshes O(n * sample), the
// jump over empty spans costs nothing per skipped tick, and the
// completion-time scratch releases keep 10k finished peers from pinning
// solver state.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/delivery.hpp"
#include "core/sharded_delivery.hpp"
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

TEST(Soak, TenThousandPeersChurnAndBurstLossRunToCompletion) {
  const auto start = std::chrono::steady_clock::now();
  const auto content = random_content(2 * 1024, 20260808);
  constexpr std::size_t kPeers = 10'000;
  constexpr std::size_t kMaxTicks = 60'000;

  core::DeliveryOptions options;
  options.block_size = 256;
  options.session_seed = 404;
  options.refresh_interval = 40;
  options.admission_sample = 4;
  options.liveness_timeout_ticks = 80;
  options.suspect_ttl_ticks = 60;
  // Bursty loss: mostly-clean good state, heavy loss in bad bursts.
  options.link.loss_rate = 0.01;
  options.link.ge_loss_good = 0.01;
  options.link.ge_loss_bad = 0.4;
  options.link.ge_p_good_bad = 0.02;
  options.link.ge_p_bad_good = 0.25;
  options.link.delay_ticks = 1;
  // Churn: a handful of crashes with staggered restarts, plus two
  // mid-run join waves the origin does not feed (they must pull
  // everything from the swarm).
  auto faults = std::make_shared<core::FaultPlan>();
  for (std::size_t i = 0; i < 8; ++i) {
    faults->crashes.push_back({100 + 50 * i, 11 + 997 * i});
    faults->restarts.push_back({400 + 50 * i, 11 + 997 * i});
  }
  faults->joins.push_back({250, 50, false});
  faults->joins.push_back({500, 50, false});
  options.faults = faults;

  core::ShardedDelivery service(content, options, {.shards = 4});
  for (std::size_t p = 0; p < kPeers; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    service.add_peer(name, p % 16 == 0);
  }
  const bool done = service.run(kMaxTicks);

  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto minutes =
      std::chrono::duration_cast<std::chrono::minutes>(elapsed).count();
  ASSERT_LT(minutes, 20) << "soak run blew the wall-clock watchdog";
  ASSERT_TRUE(done) << "swarm incomplete after " << kMaxTicks << " ticks";

  // Zero failed sessions: liveness timeouts fire during crashes and
  // bursts, but every peer must recover and finish — no session may die
  // unrecovered (an incomplete peer is the failure mode this gate pins).
  std::size_t incomplete = 0;
  for (std::size_t p = 0; p < service.peer_count(); ++p) {
    if (!service.peer_complete(p)) ++incomplete;
  }
  EXPECT_EQ(incomplete, 0u);

  // Tick past the next refresh boundary so the teardown path retires the
  // final wave of sessions (run() short-circuits once complete; tick()
  // still executes refresh boundaries).
  for (std::size_t t = 0; t <= options.refresh_interval; ++t) service.tick();

  // Bounded memory: with every session retired and solver state
  // compacted, the steady-state footprint is decoded content plus small
  // bookkeeping — far below the in-flight working set.
  const auto audit = service.memory_audit();
  EXPECT_EQ(audit.endpoint_bytes, 0u);
  EXPECT_EQ(audit.link_bytes, 0u);
  EXPECT_LT(audit.bytes_per_peer(), 32 * 1024.0);
  // Spot-check content integrity across the swarm, including a late joiner.
  EXPECT_EQ(service.peer_content(0), content);
  EXPECT_EQ(service.peer_content(kPeers / 2), content);
  EXPECT_EQ(service.peer_content(service.peer_count() - 1), content);
}

}  // namespace
}  // namespace icd
