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
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "util/shard_pool.hpp"
#include "wire/transport.hpp"

/// ShardedDelivery: ContentDeliveryService partitioned across worker
/// shards.
///
/// Peers are assigned to shards by id (round-robin); each shard owns its
/// peers' decoders and, for every download a peer receives, the whole
/// download — link and both endpoints — so the per-tick hot work
/// (recoding, XOR-heavy decoding, frame encode/decode) runs on all shards
/// concurrently. A download lives wholly on its receiver's shard; shards
/// share no links, no buffers and no frames.
///
/// A tick is two phases with barriers between them (see DESIGN.md,
/// "Threading model"):
///   send phase     — each shard runs the sender half of every download
///                    its peers receive. It only *reads* Peer state, so
///                    sender halves of one Peer may run on several shards
///                    at once;
///   receive phase  — each shard applies its peers' origin symbols and
///                    runs the receiver halves, mutating only its own
///                    peers.
/// Admission/refresh and origin symbol draws stay single-threaded on the
/// coordinator between phases, where they may touch any shard's state.
///
/// Determinism: with shards >= 2 a run is a function of the plan alone —
/// neither the shard count nor the placement of peers can change it. With
/// shards = 1 (which runs inline, no worker threads) the engine executes
/// the legacy ContentDeliveryService loop order exactly — per-peer
/// results, completion ticks and wire byte accounting are bit-for-bit
/// identical (enforced by sharded_test). The two schedules differ, so 1
/// vs N shards differ.
///
/// `batch_budget` > 0 turns on per-tick control-frame batching on every
/// link (wire::Transport::set_batch_budget), with the engine flushing each
/// endpoint's train at its tick boundary.
namespace icd::core {

struct ShardOptions {
  /// Worker shards. 1 = run inline on the caller's thread (legacy
  /// semantics, bit-for-bit).
  std::size_t shards = 1;
  /// Control-frame batching budget in bytes per train (0 = off). Applied
  /// to every download link's two transports.
  std::size_t batch_budget = 0;
  /// Cost-balanced peer placement: every `rebalance_epochs` refreshes the
  /// coordinator reassigns peers to shards by measured per-peer work
  /// (longest-processing-time over deterministic work units) instead of
  /// the admission-time id % shards placement. 0 = off (historical).
  /// Placement is semantics-free — every download runs the same two-phase
  /// schedule on whichever shard owns its receiver — and the rebalance
  /// runs at a refresh (itself a planning barrier, with every download
  /// torn down), so per-peer results are bit-for-bit unchanged; only
  /// which thread does the work moves.
  std::size_t rebalance_epochs = 0;
};

class ShardedDelivery {
 public:
  using LinkTotals = ContentDeliveryService::LinkTotals;

  ShardedDelivery(std::vector<std::uint8_t> content, DeliveryOptions options,
                  ShardOptions shard_options = {});

  void add_mirror();
  std::size_t add_peer(const std::string& name, bool subscribe_origin);

  /// Advances the whole service by one round (send phase, barrier, receive
  /// phase). Returns the number of peers that completed during this tick.
  std::size_t tick();
  /// Drives the service for up to `max_ticks` virtual ticks, jumping
  /// empty tick spans when DeliveryOptions::jump_empty_ticks is set.
  bool run(std::size_t max_ticks);
  /// Event-loop driver: see ContentDeliveryService::run_until. Sharded
  /// ticks barrier only at event times — the jump happens on the
  /// coordinator between pool runs, where it owns all state.
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
  std::vector<std::uint8_t> peer_content(std::size_t id) const;

  /// Per-receiver session outcome (see ContentDeliveryService).
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
  /// Scheduler-ordered link services executed by the inline (shards = 1)
  /// timed service path; the multi-shard phases service every download
  /// each tick and count none. Coordinator-only, between ticks.
  std::uint64_t events_processed() const {
    return service_queue_.events_processed();
  }
  /// Virtual ticks run_until() jumped over without executing.
  std::uint64_t ticks_skipped() const { return loop_.ticks_skipped(); }
  const codec::CodeParameters& parameters() const {
    return origins_.front()->parameters();
  }
  std::size_t shards() const { return shards_; }
  /// Current shard owning `peer_id`. Admission places id % shards; a
  /// cost rebalance (ShardOptions::rebalance_epochs) may move it.
  std::size_t shard_of(std::size_t peer_id) const {
    return shard_assignment_[peer_id];
  }

  /// May be called between ticks only (the coordinator thread owns all
  /// state while the workers are parked).
  LinkTotals active_link_totals() const;
  LinkTotals link_totals() const;

  /// Per-peer memory audit across decoders, endpoints and links (scale
  /// budget). Coordinator-only, between ticks.
  MemoryAudit memory_audit() const;
  /// Incremental planning-queue counters (run_until's jump planner).
  const PlanningQueue::Stats& planner_stats() const {
    return planner_.stats();
  }
  /// Deterministic per-shard service cost: the sum of the owned peers'
  /// accumulated work units (halved at each rebalance so stale history
  /// decays). The rebalance input, exposed for tests/benches; unlike
  /// busy_ns it is identical across runs and machines.
  std::vector<std::uint64_t> shard_cost_units() const;

  /// Cumulative per-shard worker thread-CPU nanoseconds (empty when
  /// shards = 1 runs inline) and wall time spent inside the parallel
  /// phases — bench_delivery's critical-path scaling model.
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
    /// Deterministic service-cost accumulator (rebalance input): bumped by
    /// the owning shard only — 1 per endpoint half run for one of its
    /// downloads, 1 per origin apply.
    std::uint64_t work_units = 0;
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
  /// Coordinator-side fault application (see ContentDeliveryService).
  void apply_faults(std::uint64_t now);
  /// Coordinator-side end-of-tick failure sweep (see
  /// ContentDeliveryService); callers must have the workers parked.
  void sweep_failed_downloads(std::uint64_t now);
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
  /// shards == 1: the legacy ContentDeliveryService tick body, inline —
  /// origin feed, then each peer's downloads end to end (the bit-for-bit
  /// contract).
  void serve_inline();
  /// Mirrors ContentDeliveryService::service_downloads for one peer.
  void service_downloads(PeerEntry& entry);
  /// Multi-shard (shards >= 2) phases: the send phase only *reads* swarm
  /// state (sender halves draw symbols from working sets nothing mutates
  /// until the barrier); the receive phase mutates only the iterated
  /// peer's own state (its origin apply, its receiver halves). No
  /// intra-tick ordering between peers can leak into results, so which
  /// shard a peer lives on — and hence the shard count and the cost
  /// rebalance — is a planning concern, not a semantics one.
  void phase_send(std::size_t shard);
  void phase_receive(std::size_t shard);
  /// Reassigns peers to shards by accumulated work units (LPT); called at
  /// a refresh boundary only, before the refresh loop rebuilds downloads.
  void rebalance_shards();
  /// One peer's earliest upcoming event, re-keyed to the peer id — the
  /// incremental planner's per-key value (see
  /// ContentDeliveryService::plan_peer_events).
  std::optional<Event> plan_peer_events(std::size_t i, std::uint64_t now);
  void replan_peer(std::size_t i, std::uint64_t now);
  /// See ContentDeliveryService::next_event_time — same incremental
  /// planning queue, same rebuild triggers; inspected by the coordinator
  /// while the workers are parked.
  std::optional<std::uint64_t> next_event_time();
  void flush_batches(DownloadLink& download);
  static void accumulate_link(const DownloadLink& download,
                              LinkTotals& totals);

  std::vector<std::uint8_t> content_;
  DeliveryOptions options_;
  std::size_t shards_;
  std::size_t batch_budget_;
  std::size_t rebalance_epochs_;
  /// Peer id -> owning shard (admission: id % shards; rebalance may move).
  std::vector<std::size_t> shard_assignment_;
  /// Refreshes executed (the rebalance epoch clock).
  std::size_t refresh_count_ = 0;
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
  /// Per-tick service ordering of the inline (shards = 1) path.
  EventLoop service_queue_;
  /// Incremental cross-tick planning queue (see
  /// ContentDeliveryService): one live entry per peer, dirty-flag /
  /// boundary-triggered full rebuilds, due keys replanned per round.
  PlanningQueue planner_;
  EventLoop plan_scratch_;
  std::vector<std::uint64_t> plan_due_scratch_;
  bool planner_dirty_ = true;
  std::uint64_t planned_through_ = 0;
  std::vector<char> plan_incomplete_;
  std::size_t incomplete_peers_ = 0;
  /// Present only when shards > 1.
  std::optional<util::ShardPool> pool_;
  std::function<void(std::size_t)> send_fn_;
  std::function<void(std::size_t)> receive_fn_;
  std::uint64_t parallel_wall_ns_ = 0;
};

}  // namespace icd::core
