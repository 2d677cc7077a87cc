#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/admission.hpp"
#include "core/endpoint.hpp"
#include "wire/channel.hpp"

/// Session planning for the delivery engine.
///
/// Every refresh must form the same sessions from the same peer state at
/// any shard count, so the admission ranking, starvation fallback, request
/// sizing and the seed-chain evolution live here, outside the engine's
/// threading, and run in ascending peer order on the coordinator.
namespace icd::core {

struct DeliveryOptions;

/// One peer's view for planning: its sketch and working-set size.
struct PlanPeer {
  const sketch::MinwiseSketch* sketch = nullptr;
  std::size_t symbol_count = 0;
  /// False when the peer may not serve right now — crashed, stalled, or
  /// under liveness suspicion (see core::FaultTracker). Unavailable peers
  /// are skipped as candidates but still plan their own downloads.
  bool available = true;
};

/// One download the plan tells the engine to create.
struct PlannedDownload {
  std::size_t sender_id = 0;
  SessionOptions session;
  wire::ChannelConfig link;
};

/// Plans receiver `me`'s downloads: admission-ranked senders (with the
/// largest-candidate starvation fallback), per-sender requested-symbol
/// shares toward `target_symbols`, and one session seed plus link config
/// per download drawn from `session_seed_chain` — which this call advances
/// so that callers iterating peers in ascending order reproduce the
/// historical seed sequence (pinned by the golden trajectories).
std::vector<PlannedDownload> plan_peer_downloads(
    std::size_t me, const std::vector<PlanPeer>& peers,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t& session_seed_chain);

/// The degree distribution the delivery engine gives its origins and
/// peers for a piece of content.
codec::DegreeDistribution delivery_distribution(std::size_t content_size,
                                                std::size_t block_size);

/// The full refresh loop, in the shape the historical trajectories pin:
/// per peer in ascending order — teardown, skip if complete, snapshot
/// *all* peers (an earlier peer's teardown tick may have grown its working
/// set this refresh), plan, create. Teardown and create belong to the
/// engine (it owns the link/endpoint types); everything that orders the
/// seed chain lives here. Not a hot path: runs once per refresh_interval
/// ticks.
void run_refresh_loop(
    std::size_t peer_count, const DeliveryOptions& options,
    std::size_t target_symbols, std::uint64_t& session_seed_chain,
    const std::function<void(std::size_t)>& teardown,
    const std::function<bool(std::size_t)>& is_complete,
    const std::function<PlanPeer(std::size_t)>& snapshot,
    const std::function<void(std::size_t, PlannedDownload&)>& create);

}  // namespace icd::core
