#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/endpoint.hpp"
#include "core/event_loop.hpp"
#include "core/fault_plan.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "wire/transport.hpp"

/// ContentDeliveryService: the application-level entry point.
///
/// Owns one piece of content, any number of origin mirrors, and a registry
/// of peers; each service "tick" advances every download by one round —
/// origins stream fresh symbols to their subscribers, and peer-to-peer
/// endpoint sessions (formed via sketch-based admission control, re-formed
/// on demand) move filtered/recoded symbols across the overlay. Every
/// peer-to-peer download runs over its own bidirectional ChannelLink, so
/// scenarios can shape each edge with loss, reordering and an MTU. This is
/// the façade a downstream application would embed; the lower-level pieces
/// remain available for custom architectures.
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
  AdmissionPolicy admission;
  /// Complementary sender-group selection (end of Section 4: "overlay
  /// management may explicitly avoid connecting nodes with identical
  /// content"). When set, planning ranks the *whole* admitted pool and
  /// then picks the max_peer_sessions group greedily, anchored at the
  /// most novel candidate and at each step adding the candidate that
  /// minimizes estimate_group_overlap of the group so far — so two
  /// near-identical senders are demoted in favor of a complementary one
  /// even when each looks equally novel against the receiver alone. Off
  /// by default: the historical plan (top novelty ranks, input order on
  /// ties) stays bit-for-bit.
  bool overlap_aware_selection = false;
  /// Massive-swarm admission: when nonzero, each refresh plans every
  /// receiver against a deterministic sample of this many candidate
  /// senders (seeded rejection draws off the session seed chain) instead
  /// of ranking the entire swarm — O(n·k²) per refresh instead of O(n²).
  /// 0 (default) keeps the historical full-pool plan bit-for-bit.
  std::size_t admission_sample = 0;
  /// Channel shaping (loss, reorder, MTU) applied to every peer-to-peer
  /// link. Perfect by default. An unset seed is replaced with a fresh
  /// per-link draw to decorrelate links; an explicit seed is honored
  /// verbatim.
  wire::ChannelConfig link;
  /// Optional per-edge override: (sender_id, receiver_id) -> config. When
  /// set it replaces `link` for that edge; the unset-seed rule above
  /// applies to the returned config too. Timing knobs (delay_ticks,
  /// jitter_ticks, hops, rate_bytes_per_tick) switch the edge to the
  /// virtual clock and the engines to scheduler-driven servicing.
  std::function<wire::ChannelConfig(std::size_t, std::size_t)> link_config;
  /// Closed-loop flow control (SessionOptions::flow_control) on every
  /// download session: receivers re-issue their request with decremented
  /// counts as symbols land, and senders stop at satisfaction instead of
  /// streaming until the next refresh. Off by default (extra control
  /// frames; historical byte accounting stays bit-for-bit).
  bool flow_control = false;
  /// Handshake retry cadence for every download session
  /// (SessionOptions::handshake_retry_ticks). On timed links set this
  /// above the worst round-trip delay, or every in-flight reply triggers
  /// a redundant bundle re-send.
  std::size_t handshake_retry_ticks = 8;

  // --- Fault tolerance (all inert by default; see DESIGN.md, "Failure
  // model") ----------------------------------------------------------------
  /// Declarative fault schedule (peer crash/stall/restart, flash-crowd
  /// joins, link blackout windows), honored identically by both engines.
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
/// swarm's RAM footprint is a measured number instead of a guess. Shared
/// by both delivery engines; see DESIGN.md, "Scale model".
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

class ContentDeliveryService {
 public:
  /// Registers the content and creates the primary origin.
  ContentDeliveryService(std::vector<std::uint8_t> content,
                         DeliveryOptions options);

  /// Adds another full mirror with an uncorrelated symbol stream.
  void add_mirror();

  /// Registers a new peer; `subscribe_origin` connects it to a round-robin
  /// origin feed (one symbol per tick). Returns the peer's id.
  std::size_t add_peer(const std::string& name, bool subscribe_origin);

  /// Advances the whole service by one round. Returns the number of peers
  /// that completed during this tick.
  std::size_t tick();

  /// Drives the service until all peers have the content or `max_ticks`
  /// virtual ticks pass, jumping empty tick spans when
  /// DeliveryOptions::jump_empty_ticks is set. Returns true if everyone
  /// finished.
  bool run(std::size_t max_ticks);

  /// Event-loop driver: advances until every peer holds the content or
  /// the virtual clock reaches `deadline`, executing only ticks at which
  /// an event (refresh, origin feed, frame arrival, send credit,
  /// handshake retry) can occur. Returns true when everyone finished:
  /// every peer holds the content and no scheduled join is still to come.
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

  std::size_t ticks() const { return ticks_; }
  const codec::CodeParameters& parameters() const {
    return origins_.front()->parameters();
  }
  /// Per-receiver session outcome: completion plus every download session
  /// the engine abandoned for this receiver (liveness timeout, handshake
  /// retry exhaustion) — the "my sender died" diagnostic surface.
  SessionResult session_result(std::size_t id) const {
    const PeerEntry& entry = peers_.at(id);
    return SessionResult{entry.peer->has_content(), entry.completed_tick,
                         entry.failed_peers, entry.peer->memory_bytes(),
                         entry.peer->decoder_stats()};
  }
  /// Decoder + endpoint + link bytes currently pinned, per layer and per
  /// peer — the scale audit both engines surface identically.
  MemoryAudit memory_audit() const;
  /// Incremental cross-tick planner counters (queue-ops-per-tick bench).
  const PlanningQueue::Stats& planner_stats() const {
    return planner_.stats();
  }
  /// Whether the peer is currently down (crashed or stalled) under the
  /// fault plan.
  bool peer_down(std::size_t id) const { return faults_.down(id, ticks_); }
  /// Scheduler-ordered link services executed (timed service path pops).
  std::uint64_t events_processed() const { return loop_.events_processed(); }
  /// Virtual ticks run_until() jumped over without executing.
  std::uint64_t ticks_skipped() const { return loop_.ticks_skipped(); }

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

    /// Banks one transport's send-side counters. The single place the
    /// TransportStats -> LinkTotals field mapping lives: both delivery
    /// engines accumulate through this, so a new counter can't land in
    /// one engine and silently skew the other's accounting.
    LinkTotals& add(const wire::TransportStats& stats) {
      control_bytes += stats.control_bytes_sent;
      control_frames += stats.control_frames_sent;
      data_bytes += stats.data_bytes_sent;
      data_frames += stats.data_frames_sent;
      frames_refused += stats.frames_refused;
      return *this;
    }
  };
  /// Stats over currently active links only; resets to near zero after
  /// every refresh_interval teardown. Use link_totals() for cumulative
  /// cost accounting.
  LinkTotals active_link_totals() const;
  /// Cumulative wire-level stats over the whole delivery: links retired by
  /// session refreshes plus the currently active ones. Monotonic across
  /// ticks.
  LinkTotals link_totals() const;

 private:
  struct PeerEntry {
    std::unique_ptr<Peer> peer;
    bool origin_fed = false;
    std::size_t origin_index = 0;
    /// Active downloads, keyed by the serving peer id.
    std::map<std::size_t, std::unique_ptr<DownloadLink>> downloads;
    /// Virtual tick of first completion (0 = incomplete).
    std::size_t completed_tick = 0;
    /// Download sessions abandoned for this receiver (diagnostics).
    std::vector<FailedPeer> failed_peers;
  };

  void refresh_sessions();
  /// Top-of-tick fault application: due crashes tear the crashed peer's
  /// own downloads down (banking wire costs; its decoded content
  /// survives for rejoin), due joins add fresh peers, and blackout
  /// windows toggle on the affected links.
  void apply_faults(std::uint64_t now);
  /// End-of-tick sweep: downloads whose receiver flagged its sender
  /// suspect (liveness) or exhausted its retry budget are torn down,
  /// recorded in failed_peers, and the sender marked suspect for
  /// admission. Runs only when liveness/retry bounding is enabled.
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
  /// The earliest virtual tick >= ticks_ at which a lockstep tick would
  /// not be a no-op: the next refresh, an origin feed (every tick while a
  /// fed peer is incomplete), or any active download's next frame
  /// arrival / send credit / handshake retry. nullopt when every peer is
  /// complete. Served by the incremental planner: only peers whose stored
  /// entry came due (or a structural invalidation) are replanned; stored
  /// entries with at >= now are exactly what a full rebuild would plan
  /// (see DESIGN.md, "Scale model").
  std::optional<std::uint64_t> next_event_time();
  /// One peer's earliest upcoming event, re-keyed to the receiving peer
  /// id — the planner entry. nullopt for complete, down, or fully drained
  /// peers (a down peer is woken by the fault-boundary rebuild).
  std::optional<Event> plan_peer_events(std::size_t i, std::uint64_t now);
  /// Re-derives one peer's planner entry and incomplete accounting.
  void replan_peer(std::size_t i, std::uint64_t now);
  /// Services one peer's downloads in event order at virtual time
  /// `now` (= the tick index): untimed links every tick in sender order
  /// (the historical lockstep), timed links only when a frame has arrived
  /// or the token bucket grants send credit.
  void service_downloads(PeerEntry& entry, std::uint64_t now);
  static void accumulate_link(const DownloadLink& download,
                              LinkTotals& totals);

  std::vector<std::uint8_t> content_;
  DeliveryOptions options_;
  std::vector<std::unique_ptr<OriginServer>> origins_;
  std::vector<PeerEntry> peers_;
  std::size_t ticks_ = 0;
  std::uint64_t next_session_seed_;
  /// Wire stats of links already torn down by refresh_sessions().
  LinkTotals retired_link_totals_;
  /// Fault bookkeeping (inert when options_.faults is null).
  FaultTracker faults_;
  /// The discrete-event core: global virtual clock + (time, kind, key)
  /// queue, reused for per-tick service ordering (rebuilt per peer).
  EventLoop loop_;
  /// The always-on incremental cross-tick planner: one live entry per
  /// peer (its earliest upcoming event), lazily invalidated by stamp.
  PlanningQueue planner_;
  /// Scratch queue plan_peer_events builds one peer's events into.
  EventLoop plan_scratch_;
  /// Keys handed back by PlanningQueue::take_due each planning round.
  std::vector<std::uint64_t> plan_due_scratch_;
  /// Structural invalidation: session refresh, fault application, failure
  /// sweep, membership change — the next planning round rebuilds fully.
  bool planner_dirty_ = true;
  /// The `now` of the last planning round (fault-boundary gap detection).
  std::uint64_t planned_through_ = 0;
  /// Per-peer incompleteness mirror + count, so planning needn't rescan
  /// every peer to decide whether the swarm is done.
  std::vector<char> plan_incomplete_;
  std::size_t incomplete_peers_ = 0;
};

}  // namespace icd::core
