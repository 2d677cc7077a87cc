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
#include "core/event_loop.hpp"
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
///
/// `batch_budget` > 0 turns on per-tick control-frame batching on every
/// link (wire::Transport::set_batch_budget), with the engine flushing each
/// endpoint's train at its tick boundary.
namespace icd::core {

struct ShardOptions {
  /// Worker shards. 1 = run the two phases on the caller's thread (no
  /// pool); the trajectory is the same at every count.
  std::size_t shards = 1;
  /// Control-frame batching budget in bytes per train (0 = off). Applied
  /// to every download link's two transports.
  std::size_t batch_budget = 0;
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
  /// retry, fault boundary) can occur; the jump happens on the coordinator
  /// between pool runs, where it owns all state. Returns true when
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
  std::uint64_t ticks_skipped() const { return loop_.ticks_skipped(); }
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
  /// Incremental planning-queue counters (run_until's jump planner).
  const PlanningQueue::Stats& planner_stats() const {
    return planner_.stats();
  }
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
  /// when liveness/retry bounding is enabled.
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
  /// concern, not a semantics one.
  void phase_send(std::size_t shard);
  void phase_receive(std::size_t shard);
  /// One peer's earliest upcoming event, re-keyed to the receiving peer
  /// id — the planner entry. nullopt for complete, down, or fully drained
  /// peers (a down peer is woken by the fault-boundary rebuild).
  std::optional<Event> plan_peer_events(std::size_t i, std::uint64_t now);
  /// Re-derives one peer's planner entry and incomplete accounting.
  void replan_peer(std::size_t i, std::uint64_t now);
  /// The earliest virtual tick >= ticks_ at which a lockstep tick would
  /// not be a no-op: the next refresh, an origin feed (every tick while a
  /// fed peer is incomplete), a fault boundary, or any active download's
  /// next frame arrival / send credit / handshake retry. nullopt when
  /// every peer is complete. Served by the incremental planner: only peers
  /// whose stored entry came due (or a structural invalidation) are
  /// replanned; stored entries with at >= now are exactly what a full
  /// rebuild would plan (see DESIGN.md, "Scale model"). Inspected by the
  /// coordinator while the workers are parked.
  std::optional<std::uint64_t> next_event_time();
  void flush_batches(DownloadLink& download);
  static void accumulate_link(const DownloadLink& download,
                              LinkTotals& totals);

  std::vector<std::uint8_t> content_;
  DeliveryOptions options_;
  std::size_t shards_;
  std::size_t batch_budget_;
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
  /// the coordinator only; the phases read per-tick snapshots instead.
  FaultTracker faults_;
  /// Coordinator event loop: global clock and jump accounting.
  EventLoop loop_;
  /// Incremental cross-tick planning queue: one live entry per peer (its
  /// earliest upcoming event), lazily invalidated by stamp. Structural
  /// changes — session refresh, fault application, failure sweep,
  /// membership change — call invalidate_all() so the next round rebuilds
  /// fully; otherwise only due keys are replanned.
  PlanningQueue planner_;
  /// Scratch queue plan_peer_events builds one peer's events into.
  EventLoop plan_scratch_;
  /// Keys handed back by PlanningQueue::take_due each planning round.
  std::vector<std::uint64_t> plan_due_scratch_;
  /// The `now` of the last planning round (fault-boundary gap detection).
  std::uint64_t planned_through_ = 0;
  /// Per-peer incompleteness mirror + count, so planning needn't rescan
  /// every peer to decide whether the swarm is done.
  std::vector<char> plan_incomplete_;
  std::size_t incomplete_peers_ = 0;
  /// Present only when shards > 1.
  std::optional<util::ShardPool> pool_;
  std::function<void(std::size_t)> send_fn_;
  std::function<void(std::size_t)> receive_fn_;
  std::uint64_t parallel_wall_ns_ = 0;
};

}  // namespace icd::core
