#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/admission.hpp"
#include "core/fault_plan.hpp"
#include "overlay/strategy.hpp"
#include "wire/channel.hpp"
#include "wire/transport.hpp"

/// The delivery engine's vocabulary: DeliveryOptions, the knobs every run
/// takes, and what a run reports besides per-peer results — MemoryAudit
/// (bytes pinned per layer) and LinkTotals (wire cost). The engine itself
/// is core::ShardedDelivery (sharded_delivery.hpp): it owns one piece of
/// content, its origin mirrors and a registry of peers, and each tick
/// moves filtered/recoded symbols over per-edge ChannelLinks between
/// sessions formed by sketch-based admission control.
namespace icd::core {

struct DeliveryOptions {
  std::size_t block_size = 1024;
  std::uint64_t session_seed = 0x1cdULL;
  /// Peer-to-peer strategy for informed sessions.
  overlay::Strategy strategy = overlay::Strategy::kRecodeBloom;
  /// Maximum concurrent upload sessions a peer serves / download sessions
  /// a peer consumes.
  std::size_t max_peer_sessions = 2;
  /// Re-run admission control and rebuild sessions every this many ticks.
  std::size_t refresh_interval = 50;
  /// Sender admission at every refresh: each incomplete receiver ranks
  /// its candidates by sketch novelty and keeps the top max_peer_sessions
  /// (see select_senders and core/session_plan.hpp).
  AdmissionPolicy admission;
  /// Massive-swarm admission: when nonzero, each refresh plans every
  /// receiver against a deterministic sample of this many candidate
  /// senders (seeded rejection draws from the receiver's own seed, see
  /// core::receiver_seed) instead of ranking the entire swarm — O(n·k²)
  /// per refresh instead of O(n²). 0 (default) ranks the full pool.
  std::size_t admission_sample = 0;
  /// Channel shaping (loss, reorder, MTU) applied to every peer-to-peer
  /// link. Perfect by default. An unset seed is replaced with a fresh
  /// per-link draw to decorrelate links; an explicit seed is honored
  /// verbatim.
  wire::ChannelConfig link;
  /// Optional per-edge override: (sender_id, receiver_id) -> config. When
  /// set it replaces `link` for that edge; the unset-seed rule above
  /// applies to the returned config too. Timing knobs (delay_ticks,
  /// jitter_ticks, rate_bytes_per_tick) switch the edge to the virtual
  /// clock and the engine to scheduler-driven servicing. Every shard calls
  /// it at once for its own receivers' downloads: it must be safe to call
  /// concurrently, and depend on the edge alone.
  std::function<wire::ChannelConfig(std::size_t, std::size_t)> link_config;
  /// Closed-loop flow control (SessionOptions::flow_control) on every
  /// download session: receivers re-issue their request with decremented
  /// counts as symbols land, and senders stop at satisfaction instead of
  /// streaming until the next refresh (paper §6.1: the receiver states how
  /// many symbols it wants from each sender). The RequestUpdate frames
  /// cost far fewer bytes than the symbols they stop. Turn it off only to
  /// measure the open loop.
  bool flow_control = true;
  /// Handshake retry cadence for every download session
  /// (SessionOptions::handshake_retry_ticks). On timed links set this
  /// above the worst round-trip delay, or every in-flight reply triggers
  /// a redundant bundle re-send.
  std::size_t handshake_retry_ticks = 8;

  // --- Fault tolerance (all inert by default; see DESIGN.md, "Failure
  // model") ----------------------------------------------------------------
  /// Declarative fault schedule (peer crash/stall/restart, flash-crowd
  /// joins, link blackout windows), honored identically by every driver
  /// and shard count.
  /// Null = no faults, all machinery bypassed on the hot path.
  std::shared_ptr<const FaultPlan> faults;
  /// Sender-liveness timeout for every download session: mid-transfer
  /// silence past this many ticks flags the sender suspect; the engine
  /// tears the session down, records it in SessionResult::failed_peers,
  /// and excludes the sender from admission for suspect_ttl_ticks.
  /// 0 = disabled.
  std::size_t liveness_timeout_ticks = 0;
  /// Capped exponential backoff on handshake retries (see
  /// SessionOptions). factor 1 = historical fixed cadence.
  std::size_t handshake_backoff_factor = 1;
  std::size_t handshake_backoff_cap_ticks = 0;
  /// Handshake retry budget per session; on exhaustion the session fails
  /// with a diagnostic instead of retrying forever. 0 = unbounded.
  std::size_t max_handshake_retries = 0;
  /// How long a suspect peer stays excluded from admission candidate
  /// pools. 0 = one refresh_interval.
  std::size_t suspect_ttl_ticks = 0;
  /// run()/run_until() jump the virtual clock across tick spans in which
  /// provably nothing can happen (no refresh due, no origin feed, no
  /// frame arrival, send credit, or handshake retry on any active link).
  /// The jumped trajectory is bit-for-bit identical to ticking through
  /// the span — skipped ticks are no-ops by construction — so this is on
  /// by default; turn it off to measure the lockstep loop (benches) or
  /// when an external driver needs every tick surfaced.
  bool jump_empty_ticks = true;
};

/// Per-peer memory accounting for the scale audit: how many bytes of
/// decoder, endpoint, and link state one simulated peer pins, so a 10k-1M
/// swarm's RAM footprint is a measured number instead of a guess. See
/// DESIGN.md, "Scale model".
struct MemoryAudit {
  std::size_t peers = 0;
  /// Peer-held codec state: block + recode decoders, sketch, symbol ids.
  std::size_t decoder_bytes = 0;
  /// Active endpoint pairs (handshake caches, reconciliation domains,
  /// scratch).
  std::size_t endpoint_bytes = 0;
  /// Link state: channel queues, delay lines, transports, buffer pools.
  std::size_t link_bytes = 0;

  std::size_t total() const {
    return decoder_bytes + endpoint_bytes + link_bytes;
  }
  double bytes_per_peer() const {
    return peers == 0 ? 0.0
                      : static_cast<double>(total()) /
                            static_cast<double>(peers);
  }
};

/// Aggregate wire-level stats over download links.
struct LinkTotals {
  std::size_t control_bytes = 0;
  std::size_t control_frames = 0;
  std::size_t data_bytes = 0;
  std::size_t data_frames = 0;
  /// Frames the transports refused to carry (MTU too small to fit even
  /// one fragment). Nonzero while nothing completes means the link
  /// config, not the protocol, is blocking delivery.
  std::size_t frames_refused = 0;

  LinkTotals& operator+=(const LinkTotals& other) {
    control_bytes += other.control_bytes;
    control_frames += other.control_frames;
    data_bytes += other.data_bytes;
    data_frames += other.data_frames;
    frames_refused += other.frames_refused;
    return *this;
  }
  bool operator==(const LinkTotals&) const = default;

  /// Banks one transport's send-side counters: the single place the
  /// TransportStats -> LinkTotals field mapping lives.
  LinkTotals& add(const wire::TransportStats& stats) {
    control_bytes += stats.control_bytes_sent;
    control_frames += stats.control_frames_sent;
    data_bytes += stats.data_bytes_sent;
    data_frames += stats.data_frames_sent;
    frames_refused += stats.frames_refused;
    return *this;
  }
};

}  // namespace icd::core
