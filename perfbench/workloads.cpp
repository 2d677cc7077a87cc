#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/scenario.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using icd::core::DeliveryOptions;
using icd::core::ShardedDelivery;
using icd::core::ShardOptions;

// swarm: many peers, tiny content, 1-tick links, sampled admission. The
// engine's own overhead (planning, admission, handshakes, barriers) is
// the work; the codec is nearly idle.
constexpr std::size_t kSwarmPeers = 5000;
constexpr std::size_t kSwarmContent = 1024;
constexpr std::size_t kSwarmBlock = 256;
constexpr std::size_t kSwarmFedEvery = 8;
constexpr std::size_t kSwarmShards = 2;
constexpr std::size_t kSwarmAdmissionSample = 4;

// bulk: few peers, large content, untimed lossy links. XOR-heavy encode,
// recode and peeling plus data frames are the work; the untimed links
// take the lockstep path that never touches the planning heap.
constexpr std::size_t kBulkPeers = 128;
constexpr std::size_t kBulkContent = 512 * 1024;
constexpr std::size_t kBulkBlock = 1024;
constexpr std::size_t kBulkFed = 4;
constexpr double kBulkLoss = 0.02;
constexpr std::size_t kBulkDeliveries = 4;

// churn: a generated scenario of shaped access links, arrivals and
// periodic crash/restart; sessions are torn down and re-formed all run.
constexpr std::size_t kChurnPeers = 200;
constexpr std::size_t kChurnFed = 25;
constexpr std::size_t kChurnFlashJoins = 60;
constexpr std::size_t kChurnPoissonJoins = 40;
constexpr std::size_t kChurnContent = 4096;
constexpr std::size_t kChurnBlock = 128;
constexpr std::size_t kChurnCrashes = 12;
constexpr std::size_t kChurnDeliveries = 16;


std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(n);
  icd::util::Xoshiro256 rng(seed);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// The churn scenario as .scn text (grammar: docs/SCENARIOS.md). Access
/// classes, the Poisson arrival seed and the crash schedule come from the
/// seed; the shape (sizes, rates, timeouts) is fixed.
std::string churn_scenario(std::uint64_t seed) {
  icd::util::Xoshiro256 rng(icd::util::mix64(seed ^ 0xc4u));
  std::ostringstream scn;
  scn << "name perfbench-churn\n"
      << "peers " << kChurnPeers << "\n"
      << "fed " << kChurnFed << "\n"
      << "content_bytes " << kChurnContent << "\n"
      << "block_size " << kChurnBlock << "\n"
      << "seed " << (icd::util::mix64(seed ^ 0x5cu) >> 1) << "\n"
      << "refresh_interval 20\n"
      << "max_peer_sessions 4\n"
      << "flow_control 1\n"
      << "handshake_retry_ticks 24\n"
      << "liveness_timeout_ticks 40\n"
      << "handshake_backoff_factor 2\n"
      << "handshake_backoff_cap_ticks 64\n"
      << "max_handshake_retries 8\n"
      << "suspect_ttl_ticks 60\n"
      << "max_ticks 40000\n"
      << "profile fiber up 4000 down 4000 delay 1\n"
      << "profile dsl up 300 down 1500 delay 3 jitter 1 loss 0.005\n"
      << "profile mobile up 150 down 600 delay 6 jitter 4 "
         "ge 0.01 0.4 0.02 0.25\n";
  // Seeders on fiber; the rest a 20/50/30 fiber/dsl/mobile mix.
  for (std::size_t p = 0; p < kChurnPeers; ++p) {
    const char* profile = "fiber";
    if (p >= kChurnFed) {
      const std::uint64_t draw = rng.next_below(10);
      profile = draw < 2 ? "fiber" : (draw < 7 ? "dsl" : "mobile");
    }
    scn << "access " << p << " " << profile << "\n";
  }
  scn << "access default dsl\n";
  scn << "arrival flash 120 " << kChurnFlashJoins << " ramp 80\n";
  scn << "arrival poisson 60 " << kChurnPoissonJoins << " 0.08 "
      << (1 + rng.next_below(1u << 30)) << "\n";
  // Periodic crash/restart of distinct non-seeding initial peers: one
  // crash every 50 ticks from tick 50, each down for 100-160 ticks.
  std::vector<std::size_t> victims;
  while (victims.size() < kChurnCrashes) {
    const std::size_t peer =
        kChurnFed + rng.next_below(kChurnPeers - kChurnFed);
    if (std::find(victims.begin(), victims.end(), peer) == victims.end()) {
      victims.push_back(peer);
    }
  }
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const std::uint64_t at = 50 * (i + 1);
    scn << "crash " << at << " " << victims[i] << "\n"
        << "restart " << at + 100 + rng.next_below(61) << " " << victims[i]
        << "\n";
  }
  return scn.str();
}

Instance build_swarm(const Inputs& inputs) {
  DeliveryOptions options;
  options.block_size = kSwarmBlock;
  options.session_seed = inputs.session_seed;
  options.refresh_interval = 40;
  options.admission_sample = kSwarmAdmissionSample;
  options.link.delay_ticks = 1;
  Instance instance;
  instance.engine = std::make_unique<ShardedDelivery>(
      inputs.content, options, ShardOptions{kSwarmShards});
  for (std::size_t p = 0; p < kSwarmPeers; ++p) {
    instance.engine->add_peer("p" + std::to_string(p),
                              p % kSwarmFedEvery == 0);
  }
  instance.join_tick.assign(kSwarmPeers, 0);
  instance.max_ticks = 20000;
  return instance;
}

Instance build_bulk(const Inputs& inputs) {
  DeliveryOptions options;
  options.block_size = kBulkBlock;
  options.session_seed = inputs.session_seed;
  options.link.loss_rate = kBulkLoss;
  Instance instance;
  instance.engine = std::make_unique<ShardedDelivery>(inputs.content, options,
                                                      ShardOptions{1});
  // Origin feeds spread over the id range.
  const std::size_t stride = kBulkPeers / kBulkFed;
  for (std::size_t p = 0; p < kBulkPeers; ++p) {
    instance.engine->add_peer("p" + std::to_string(p), p % stride == 0);
  }
  instance.join_tick.assign(kBulkPeers, 0);
  instance.max_ticks = 100000;
  return instance;
}

Instance build_churn(const Inputs& inputs) {
  icd::core::CompiledScenario compiled = icd::core::compile_scenario(
      icd::core::Scenario::parse_text(inputs.scenario_text, "perfbench-churn"));
  if (compiled.content.size() != inputs.content.size()) {
    throw std::runtime_error("churn: scenario content size mismatch");
  }
  compiled.content = inputs.content;
  Instance instance;
  instance.engine = std::make_unique<ShardedDelivery>(
      compiled.content, compiled.options, ShardOptions{1});
  icd::core::seed_scenario_peers(*instance.engine, compiled);
  instance.join_tick.assign(compiled.peers, 0);
  // Joiners take ids from `peers` upward in join-event order.
  for (const auto& join : compiled.options.faults->joins) {
    instance.join_tick.insert(instance.join_tick.end(), join.count, join.at);
  }
  instance.max_ticks = compiled.max_ticks;
  return instance;
}

}  // namespace

bool Outcome::same_trajectory(const Outcome& other) const {
  return completion_tick == other.completion_tick &&
         totals.control_bytes == other.totals.control_bytes &&
         totals.control_frames == other.totals.control_frames &&
         totals.data_bytes == other.totals.data_bytes &&
         totals.data_frames == other.totals.data_frames &&
         totals.frames_refused == other.totals.frames_refused &&
         end_tick == other.end_tick;
}

bool known_workload(const std::string& name) {
  return name == "swarm" || name == "bulk" || name == "churn";
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (!known_workload(name)) {
    throw std::runtime_error("unknown workload: " + name);
  }
  Workload workload;
  workload.name = name;
  std::size_t deliveries = 1;
  std::size_t content_bytes = 0;
  if (name == "swarm") {
    content_bytes = kSwarmContent;
    workload.block_size = kSwarmBlock;
    workload.mtu = icd::wire::ChannelConfig{}.mtu;
    workload.admission_candidates = kSwarmAdmissionSample;
    workload.slowdown_exponent = 0.75;
  } else if (name == "bulk") {
    deliveries = kBulkDeliveries;
    content_bytes = kBulkContent;
    workload.block_size = kBulkBlock;
    workload.mtu = icd::wire::ChannelConfig{}.mtu;
    workload.admission_candidates = kBulkPeers - 1;  // full-pool ranking
    workload.slowdown_exponent = 1.5;
  } else {
    deliveries = kChurnDeliveries;
    content_bytes = kChurnContent;
    workload.block_size = kChurnBlock;
    workload.mtu = icd::core::Scenario{}.mtu;
    workload.admission_candidates =
        kChurnPeers + kChurnFlashJoins + kChurnPoissonJoins - 1;
    // Timed links: steps span several ticks so run_until still jumps.
    workload.step_ticks = 8;
    workload.slowdown_exponent = 1.5;
  }
  for (std::size_t d = 0; d < deliveries; ++d) {
    const std::uint64_t sub = icd::util::mix64(seed * 0x100 + d);
    Inputs inputs;
    inputs.workload = name;
    inputs.content = random_bytes(content_bytes, icd::util::mix64(sub ^ 0xc0u));
    inputs.session_seed = icd::util::mix64(sub ^ 0x5e55u);
    if (name == "churn") inputs.scenario_text = churn_scenario(sub);
    workload.deliveries.push_back(std::move(inputs));
  }
  return workload;
}

Instance build_instance(const Inputs& inputs) {
  if (inputs.workload == "swarm") return build_swarm(inputs);
  if (inputs.workload == "bulk") return build_bulk(inputs);
  return build_churn(inputs);
}

Outcome harvest(const Instance& instance, const Inputs& inputs) {
  const ShardedDelivery& engine = *instance.engine;
  Outcome outcome;
  outcome.totals = engine.link_totals();
  outcome.end_tick = engine.ticks();
  const std::size_t peers = engine.peer_count();
  outcome.completion_tick.resize(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    const bool complete = engine.peer_complete(p);
    outcome.completion_tick[p] = engine.peer_completion_tick(p);
    if (!complete && engine.peer_down(p)) continue;  // exempt
    ++outcome.attempted;
    if (!complete) {
      ++outcome.incomplete;
    } else if (engine.peer_content(p) != inputs.content) {
      ++outcome.mismatched;
    } else {
      ++outcome.verified;
      outcome.completion_ticks.push_back(outcome.completion_tick[p] -
                                         instance.join_tick.at(p));
    }
  }
  // Joiners still scheduled when the run stopped never got an id.
  outcome.attempted += instance.join_tick.size() - peers;
  outcome.incomplete += instance.join_tick.size() - peers;
  std::sort(outcome.completion_ticks.begin(), outcome.completion_ticks.end());
  return outcome;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace perfbench
