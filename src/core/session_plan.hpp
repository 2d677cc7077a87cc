#pragma once

#include <cstdint>
#include <vector>

#include "core/admission.hpp"
#include "core/endpoint.hpp"
#include "wire/channel.hpp"

/// Session planning for the delivery engine.
///
/// Every refresh must form the same sessions from the same peer state at
/// any shard count, so admission ranking, the starvation fallback, request
/// sizing, candidate sampling and seeding live here, as functions of (peer
/// view, options, receiver seed). A receiver's seed depends only on the
/// session seed, the refresh tick and its id (receiver_seed), so each shard
/// plans its own receivers (ShardedDelivery::refresh_sessions) in any order.
namespace icd::core {

struct DeliveryOptions;

/// One download the plan tells the engine to create.
struct PlannedDownload {
  std::size_t sender_id = 0;
  SessionOptions session;
  wire::ChannelConfig link;
};

/// The seed receiver `receiver` plans from at the refresh of tick
/// `refresh_tick`, derived from DeliveryOptions::session_seed.
std::uint64_t receiver_seed(std::uint64_t session_seed,
                            std::uint64_t refresh_tick, std::size_t receiver);

/// Plans receiver `me`'s downloads from its own entry `self` and the
/// candidates it ranks this refresh: admission-ranked senders (relaxed for
/// a near-complete receiver, with the largest-candidate starvation
/// fallback), per-sender requested-symbol shares toward `target_symbols`,
/// and one session seed plus link config per download, chained locally off
/// the receiver's `seed`.
std::vector<PlannedDownload> plan_downloads(
    std::size_t me, const CandidateSender& self,
    const std::vector<CandidateSender>& candidates,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t seed);

/// Fills `out` with receiver `me`'s candidates from `view`, drawn from
/// `eligible` (ascending ids of the peers that hold symbols and are
/// neither down nor suspect): all but `me` when `sample` is 0 (full-pool
/// admission), else up to `sample` distinct ones
/// (DeliveryOptions::admission_sample) drawn by a stream seeded from `seed`.
void sample_candidates(std::size_t me, const std::vector<CandidateSender>& view,
                       const std::vector<std::size_t>& eligible,
                       std::size_t sample, std::uint64_t seed,
                       std::vector<CandidateSender>& out);

/// The degree distribution the delivery engine gives its origins and
/// peers for a piece of content.
codec::DegreeDistribution delivery_distribution(std::size_t content_size,
                                                std::size_t block_size);

}  // namespace icd::core
