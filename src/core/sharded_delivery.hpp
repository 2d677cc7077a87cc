#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/delivery.hpp"
#include "core/endpoint.hpp"
#include "core/fault_plan.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "util/shard_pool.hpp"
#include "wire/transport.hpp"

/// ShardedDelivery: the delivery engine — the application-level entry
/// point a downstream application embeds.
///
/// Owns one piece of content, any number of origin mirrors, and a registry
/// of peers; each tick advances every download by one round — origins
/// stream fresh symbols to their subscribers, and peer-to-peer endpoint
/// sessions (formed via sketch-based admission control, re-formed every
/// refresh_interval) move filtered/recoded symbols across the overlay, each
/// over its own bidirectional ChannelLink so every edge can be shaped.
///
/// Peers are assigned to shards by id (round-robin); each shard owns its
/// peers' decoders and, for every download a peer receives, the whole
/// download — link and both endpoints — so the per-tick hot work
/// (recoding, XOR-heavy decoding, frame encode/decode) runs on all shards
/// concurrently. A download lives wholly on its receiver's shard; shards
/// share no links, no buffers and no frames.
///
/// Every tick is two phases with a barrier between them (see DESIGN.md,
/// "Threading model"):
///   send phase     — each shard runs the sender half of every download
///                    its peers receive. It only *reads* Peer state, so
///                    sender halves of one Peer may run on several shards
///                    at once;
///   receive phase  — each shard applies its peers' origin symbols and
///                    runs the receiver halves, mutating only its own
///                    peers.
/// shards = 1 runs both phases on the caller's thread, with no worker
/// threads; shards >= 2 run them on a ShardPool. Admission/refresh and
/// origin symbol draws stay single-threaded on the coordinator outside the
/// phases, where they may touch any shard's state.
///
/// Determinism: a tick is a function of the state at its start, so a run
/// is a function of the plan alone — the shard count (1 included), and
/// with it the placement of peers, cannot change it. The trajectories are
/// pinned by tests/golden/engine_trajectories.txt.
namespace icd::core {

struct ShardOptions {
  /// Worker shards. 1 = run the two phases on the caller's thread (no
  /// pool); the trajectory is the same at every count.
  std::size_t shards = 1;
};

class ShardedDelivery {
 public:
  using LinkTotals = core::LinkTotals;

  ShardedDelivery(std::vector<std::uint8_t> content, DeliveryOptions options,
                  ShardOptions shard_options = {});

  /// Adds another full mirror with an uncorrelated symbol stream.
  void add_mirror();
  /// Registers a new peer; `subscribe_origin` connects it to a round-robin
  /// origin feed (one symbol per tick). Returns the peer's id.
  std::size_t add_peer(const std::string& name, bool subscribe_origin);

  /// Advances the whole service by one round. Returns the number of peers
  /// that completed during this tick.
  std::size_t tick();
  /// Drives the service for up to `max_ticks` virtual ticks (see
  /// run_until). Returns true if everyone finished.
  bool run(std::size_t max_ticks);
  /// Event-loop driver: advances until every peer holds the content or
  /// the virtual clock reaches `deadline`. With
  /// DeliveryOptions::jump_empty_ticks set it executes only ticks at which
  /// an event (refresh, origin feed, frame arrival, send credit, handshake
  /// retry, fault boundary) can occur: the minimum of the per-peer plans
  /// the receive phase stored, the next fault boundary and the next
  /// refresh, taken on the coordinator between pool runs. Returns true when
  /// everyone finished: every peer holds the content and no scheduled join
  /// is still to come.
  bool run_until(std::uint64_t deadline);

  std::size_t peer_count() const { return peers_.size(); }
  const Peer& peer(std::size_t id) const { return *peers_.at(id).peer; }
  bool peer_complete(std::size_t id) const {
    return peers_.at(id).peer->has_content();
  }
  /// Virtual tick at which the peer first held the content (the ticks()
  /// value observed right after the completing tick); 0 = not yet.
  std::size_t peer_completion_tick(std::size_t id) const {
    return peers_.at(id).completed_tick;
  }
  /// Reconstructed content for a finished peer.
  std::vector<std::uint8_t> peer_content(std::size_t id) const;

  /// Per-receiver session outcome: completion plus every download session
  /// the engine abandoned for this receiver (liveness timeout, handshake
  /// retry exhaustion) — the "my sender died" diagnostic surface.
  SessionResult session_result(std::size_t id) const {
    const PeerEntry& entry = peers_.at(id);
    return SessionResult{entry.peer->has_content(), entry.completed_tick,
                         entry.failed_peers, entry.peer->memory_bytes(),
                         entry.peer->decoder_stats()};
  }
  /// Whether the peer is currently down (crashed or stalled) under the
  /// fault plan.
  bool peer_down(std::size_t id) const { return faults_.down(id, ticks_); }

  std::size_t ticks() const { return ticks_; }
  /// Always 0: the phases service every download each executed tick, with
  /// no per-tick event queue to count. Kept for callers that report it.
  std::uint64_t events_processed() const { return 0; }
  /// Virtual ticks run_until() jumped over without executing.
  std::uint64_t ticks_skipped() const { return ticks_skipped_; }
  const codec::CodeParameters& parameters() const {
    return origins_.front()->parameters();
  }
  std::size_t shards() const { return shards_; }
  /// Shard owning `peer_id`: peers are placed round-robin by id.
  std::size_t shard_of(std::size_t peer_id) const {
    return peer_id % shards_;
  }

  /// Stats over currently active links only; resets to near zero after
  /// every refresh_interval teardown. May be called between ticks only
  /// (the coordinator thread owns all state while the workers are parked).
  LinkTotals active_link_totals() const;
  /// Cumulative wire-level stats over the whole delivery: links retired by
  /// session refreshes plus the currently active ones. Monotonic across
  /// ticks.
  LinkTotals link_totals() const;

  /// Per-peer memory audit across decoders, endpoints and links (scale
  /// budget). Coordinator-only, between ticks.
  MemoryAudit memory_audit() const;
  /// Jump-planner counters. The names exist for perfbench, which reads
  /// them (as with events_processed()): `pushes` counts the peers holding
  /// a planned tick after each executed tick. Per-peer plans are never
  /// stale and never rebuilt, so the other two read 0.
  struct PlannerStats {
    std::uint64_t pushes = 0;
    std::uint64_t stale_skipped = 0;
    std::uint64_t full_rebuilds = 0;
    std::uint64_t ops() const { return pushes; }
  };
  const PlannerStats& planner_stats() const { return planner_stats_; }
  /// Cumulative per-shard worker thread-CPU nanoseconds (empty at
  /// shards = 1, which runs without a pool) and wall time spent inside the
  /// parallel phases — bench_delivery's critical-path scaling model.
  std::vector<std::uint64_t> shard_busy_ns() const;
  std::uint64_t parallel_wall_ns() const { return parallel_wall_ns_; }

 private:
  struct PeerEntry {
    std::unique_ptr<Peer> peer;
    bool origin_fed = false;
    std::size_t origin_index = 0;
    /// Active downloads, keyed by the serving peer id. Both halves run on
    /// this peer's shard.
    std::map<std::size_t, std::unique_ptr<DownloadLink>> downloads;
    /// Origin symbol id reserved by the coordinator this tick; the owning
    /// shard runs the (pure, const) encode, so the XOR-heavy origin
    /// encoding parallelizes across the pool while the id sequence — and
    /// thus the symbol-to-peer assignment — stays the coordinator's
    /// deterministic draw order.
    std::optional<std::uint64_t> pending_origin_id;
    /// Snapshot the phases read instead of cross-shard peer state.
    bool complete_at_tick_start = false;
    /// Down (crashed or stalled) under the fault plan this tick — written
    /// by the coordinator prologue, read by the phase workers (the pool
    /// barrier orders the handoff).
    bool faulted_at_tick_start = false;
    /// This peer's plan: the earliest tick >= the next one at which it has
    /// work (plan_peer). Written by the owning shard at the end of each
    /// receive phase, and by the failure sweep for receivers it touched.
    std::optional<std::uint64_t> next_due;
    /// Virtual tick of first completion (0 = incomplete).
    std::size_t completed_tick = 0;
    /// Download sessions abandoned for this receiver (diagnostics).
    std::vector<FailedPeer> failed_peers;
  };

  void refresh_sessions();
  void release_pool_owners();
  /// Coordinator-side, top-of-tick fault application: due crashes tear the
  /// crashed peer's own downloads down (banking wire costs; its decoded
  /// content survives for rejoin), due joins add fresh peers, and blackout
  /// windows toggle on the affected links.
  void apply_faults(std::uint64_t now);
  /// Coordinator-side end-of-tick sweep (callers must have the workers
  /// parked): downloads whose receiver flagged its sender suspect
  /// (liveness) or exhausted its retry budget are torn down, recorded in
  /// failed_peers, and the sender marked suspect for admission. Runs only
  /// when liveness/retry bounding is enabled. Re-plans every receiver it
  /// erased a download from.
  void sweep_failed_downloads(std::uint64_t now);
  /// Graceful single-download teardown shared by refresh, crash, and the
  /// failure sweep: flush in-flight frames, final receiver drain, bank
  /// wire costs.
  void teardown_download(DownloadLink& download);
  bool failure_detection_enabled() const {
    return options_.liveness_timeout_ticks > 0 ||
           options_.max_handshake_retries > 0;
  }
  std::uint64_t suspect_ttl() const {
    return options_.suspect_ttl_ticks > 0
               ? options_.suspect_ttl_ticks
               : std::max<std::size_t>(1, options_.refresh_interval);
  }
  /// run_until's completion condition: every peer holds the content and
  /// no scheduled join is still to come.
  bool all_finished() const;
  /// The two phases of a tick: the send phase only *reads* swarm
  /// state (sender halves draw symbols from working sets nothing mutates
  /// until the barrier); the receive phase mutates only the iterated
  /// peer's own state (its origin apply, its receiver halves). No
  /// intra-tick ordering between peers can leak into results, so which
  /// shard a peer lives on — and hence the shard count — is a planning
  /// concern, not a semantics one. The receive phase also plans each of
  /// its peers, serviced or not (PeerEntry::next_due).
  void phase_send(std::size_t shard);
  void phase_receive(std::size_t shard);
  /// The earliest tick >= `now` at which peer i has work: `now` for an
  /// origin-fed peer (the fountain streams every tick), else the earliest
  /// download_due_at over its downloads. nullopt for complete, down, or
  /// fully drained peers (a down peer wakes at a fault boundary). Reads
  /// only the peer's own downloads and the immutable fault plan, so its
  /// owning shard may call it inside a phase.
  std::optional<std::uint64_t> plan_peer(std::size_t i,
                                         std::uint64_t now) const;
  /// The earliest virtual tick >= ticks_ at which a lockstep tick would
  /// not be a no-op: the earliest per-peer plan folded by the last tick,
  /// the next fault boundary, or the next refresh. Called by run_until
  /// right after a tick, while the workers are parked.
  std::uint64_t next_event_time() const;
  static void accumulate_link(const DownloadLink& download,
                              LinkTotals& totals);

  std::vector<std::uint8_t> content_;
  DeliveryOptions options_;
  std::size_t shards_;
  std::vector<std::unique_ptr<OriginServer>> origins_;
  std::vector<PeerEntry> peers_;
  /// Per shard: owned peer ids, ascending.
  std::vector<std::vector<std::size_t>> shard_peers_;
  std::size_t ticks_ = 0;
  /// Virtual time of the tick in progress (= its tick index), read by the
  /// phases on every shard; written only between pool runs.
  std::uint64_t tick_now_ = 0;
  std::uint64_t next_session_seed_;
  LinkTotals retired_link_totals_;
  /// Fault bookkeeping (inert when options_.faults is null). Mutated on
  /// the coordinator only; the phases read per-tick snapshots and, while
  /// planning, the immutable plan (down()).
  FaultTracker faults_;
  /// Virtual ticks run_until jumped over without executing.
  std::uint64_t ticks_skipped_ = 0;
  /// The minimum of every peer's next_due, folded by the last tick's
  /// epilogue (nullopt: no peer has work planned).
  std::optional<std::uint64_t> earliest_due_;
  PlannerStats planner_stats_;
  /// Present only when shards > 1.
  std::optional<util::ShardPool> pool_;
  std::function<void(std::size_t)> send_fn_;
  std::function<void(std::size_t)> receive_fn_;
  std::uint64_t parallel_wall_ns_ = 0;
};

}  // namespace icd::core
