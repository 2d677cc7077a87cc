#pragma once

#include <cstdint>
#include <vector>

#include "core/admission.hpp"
#include "core/endpoint.hpp"
#include "wire/channel.hpp"

/// Session planning for the delivery engine.
///
/// Every refresh must form the same sessions from the same peer state at
/// any shard count, so the admission ranking, starvation fallback, request
/// sizing, candidate sampling and the seed-chain evolution live here, as
/// functions of (peer view, options, chain value). The engine's refresh
/// (ShardedDelivery::refresh_sessions) calls them on the coordinator, one
/// receiver at a time in ascending id order.
namespace icd::core {

struct DeliveryOptions;

/// One peer as a refresh sees it: its sketch and working-set size.
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

/// Plans receiver `me`'s downloads from its view `self` and the candidate
/// senders it ranks this refresh: admission-ranked senders (relaxed for a
/// near-complete receiver, with the largest-candidate starvation
/// fallback), per-sender requested-symbol shares toward `target_symbols`,
/// and one session seed plus link config per download drawn from
/// `session_seed_chain`. The call advances the chain once per planned
/// download, so a refresh that plans receivers in ascending order
/// reproduces the historical seed sequence (pinned by the golden
/// trajectories).
std::vector<PlannedDownload> plan_downloads(
    std::size_t me, const PlanPeer& self,
    const std::vector<CandidateSender>& candidates,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t& session_seed_chain);

/// Sampled admission (DeliveryOptions::admission_sample): fills `out` with
/// up to `sample` distinct candidates for receiver `me`, drawn from
/// `eligible` (ascending ids of peers that may serve and hold symbols) by
/// a stream forked off `session_seed_chain` without advancing it.
void sample_candidates(std::size_t me, const std::vector<PlanPeer>& peers,
                       const std::vector<std::size_t>& eligible,
                       std::size_t sample, std::uint64_t session_seed_chain,
                       std::vector<CandidateSender>& out);

/// The degree distribution the delivery engine gives its origins and
/// peers for a piece of content.
codec::DegreeDistribution delivery_distribution(std::size_t content_size,
                                                std::size_t block_size);

}  // namespace icd::core
