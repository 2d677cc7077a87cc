#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/peer.hpp"
#include "overlay/strategy.hpp"
#include "util/random.hpp"
#include "wire/transport.hpp"

/// Message-driven protocol endpoints.
///
/// SenderEndpoint and ReceiverEndpoint are the two halves of the paper's
/// informed-transfer protocol (Sections 3-6) as state machines that
/// communicate *only* through wire frames over a Transport:
///
///   handshake  — the receiver ships Hello + its min-wise sketch, the
///                fine-grained summary its strategy calls for, and a
///                symbols-desired Request;
///   estimate   — the sender answers with its own Hello + sketch, and both
///                sides turn resemblance into a containment estimate;
///   summarize  — the sender digests the Bloom/ART summary into a filtered
///                send/recoding domain;
///   transfer   — the sender streams (re)coded symbols, the receiver's
///                stacked decoders absorb them.
///
/// Because no call crosses the pair except via frames, the endpoints run
/// identically over a perfect in-process Pipe and over a LossyChannel with
/// loss and reordering: the receiver re-sends its handshake bundle until
/// the sender's reply arrives (the Request/retry path), and symbol loss is
/// absorbed by the fountain code itself. All control/data byte accounting
/// is exact, measured from the encoded frames by the Transport.
namespace icd::core {

/// Which fine-grained summary the BF-flavored strategies ship.
enum class SummaryKind { kBloomFilter, kArt };

/// New encoded symbols between flow-control updates (see
/// SessionOptions::flow_control).
inline constexpr std::size_t kFlowUpdateSymbols = 8;

/// Per-session settings. Summary sizes and the recoding degree limit are
/// protocol constants: filter::kSummaryBitsPerElement, the
/// art::kSummary* values and codec::kDefaultRecodeDegreeLimit.
struct SessionOptions {
  overlay::Strategy strategy = overlay::Strategy::kRecodeBloom;
  SummaryKind summary = SummaryKind::kBloomFilter;
  /// Number of symbols the receiver requests (0 = sender's full domain);
  /// the Recode/BF recoding domain is restricted to this size.
  std::size_t requested_symbols = 0;
  /// Receiver re-sends its handshake bundle after this many quiet ticks
  /// until the sender's reply lands (loss tolerance). On high-RTT timed
  /// links, set this above the round-trip delay or every in-flight reply
  /// triggers a redundant retry (harmless but wasteful).
  std::size_t handshake_retry_ticks = 8;
  /// Capped exponential backoff on the retry cadence: retry k waits
  /// handshake_retry_ticks * factor^k quiet ticks (clamped to
  /// handshake_backoff_cap_ticks when that is nonzero). 1 = the
  /// historical fixed cadence, bit-for-bit.
  std::size_t handshake_backoff_factor = 1;
  /// Upper bound on one backoff interval (0 = uncapped growth).
  std::size_t handshake_backoff_cap_ticks = 0;
  /// Retry budget: after this many handshake retries without a reply the
  /// receiver declares the session failed() and stops re-sending —
  /// a permanently dead sender can no longer hold a receiver forever.
  /// 0 = retry indefinitely (historical).
  std::size_t max_handshake_retries = 0;
  /// Sender-liveness timeout: in transfer, if no frame arrives within
  /// this many (virtual) ticks the receiver flags its sender suspect
  /// (sender_suspect()) so the engine can tear the session down and
  /// reroute. 0 = disabled (historical).
  std::size_t liveness_timeout_ticks = 0;
  /// Flow control: when true the receiver re-issues its request as
  /// wire::RequestUpdate frames with the decremented remaining count every
  /// kFlowUpdateSymbols new encoded symbols, plus a final
  /// zero-remaining update at satisfaction — so the sender stops at
  /// satisfaction instead of relying on the driver loop. Off by default:
  /// the updates are extra control frames, and the historical byte
  /// accounting must stay bit-for-bit reproducible.
  bool flow_control = false;
  std::uint64_t seed = 0x5e5510a5eedULL;
};

struct SessionStats {
  /// Control-plane cost, measured from the actual encoded frames the
  /// transports carried (both directions): total bytes and frame count.
  std::size_t control_bytes = 0;
  std::size_t control_packets = 0;
  /// Estimated containment |receiver ∩ sender| / |sender| from sketches.
  double estimated_containment = 0.0;
  /// Data-plane counters.
  std::size_t symbols_sent = 0;
  std::size_t symbols_useful = 0;  // yielded >= 1 new encoded symbol
  std::size_t new_encoded_symbols = 0;
};

/// Heap bytes a cached handshake message pins (scale audit): the sketch,
/// Bloom, or ART payload held inside the wire::Message variant. Other
/// message kinds (and an empty optional) cost nothing worth charging.
inline std::size_t cached_message_bytes(
    const std::optional<wire::Message>& message) {
  if (!message) return 0;
  if (const auto* s = std::get_if<wire::SketchMessage>(&*message)) {
    return s->sketch.memory_bytes();
  }
  if (const auto* b = std::get_if<wire::BloomSummaryMessage>(&*message)) {
    return b->filter.memory_bytes();
  }
  if (const auto* a = std::get_if<wire::ArtSummaryMessage>(&*message)) {
    return a->summary.memory_bytes();
  }
  return 0;
}

/// Protocol progress of one endpoint.
enum class EndpointPhase : std::uint8_t {
  kHandshake,  // nothing exchanged yet
  kEstimate,   // sketches in flight / being compared
  kSummarize,  // sender: waiting for or digesting the summary
  kTransfer,   // symbols flowing
};

/// The downloading half. Drives the handshake (it speaks first) and feeds
/// arriving symbols into its Peer's stacked decoders.
class ReceiverEndpoint {
 public:
  /// The peer and transport must outlive the endpoint.
  ReceiverEndpoint(Peer& peer, SessionOptions options,
                   wire::Transport& transport);

  /// Sends the handshake bundle (Hello, sketch, summary, Request). Must be
  /// called once before tick().
  void start();

  /// Drains the transport, absorbs symbols, advances the state machine and
  /// re-sends the handshake bundle on stall. Returns the number of new
  /// encoded symbols gained this tick.
  std::size_t tick();

  /// Timer hook for event-driven drivers: tells the endpoint the virtual
  /// time of the next tick() call (monotonic). Once called, the handshake
  /// retry clock counts *virtual ticks between services* instead of
  /// service calls — on a lockstep driver (one service per tick) the two
  /// are identical, and on a jumping driver the skipped span is credited
  /// in one step, so the retry fires at exactly the same virtual tick the
  /// lockstep run would have fired it. Drivers that never call this (Pipe
  /// rounds, untimed engines) keep the historical call-counting clock.
  void advance_to(std::uint64_t now) {
    clock_ = clock_ ? std::max(*clock_, now) : now;
  }

  /// The virtual tick at which the handshake retry will fire if nothing
  /// arrives — the event a jumping driver must wake for. nullopt while
  /// in transfer (no retries), after retry exhaustion (failed() — no
  /// further retries ever), before the first virtual-clock service
  /// (no baseline yet — treat as due now), or on the call-counting clock.
  std::optional<std::uint64_t> retry_due_at() const {
    if (phase_ == EndpointPhase::kTransfer || failed_ || !serviced_at_) {
      return std::nullopt;
    }
    const std::size_t interval = retry_interval();
    return *serviced_at_ +
           (interval > quiet_ticks_ ? interval - quiet_ticks_ : 1);
  }

  /// The virtual tick at which the sender-liveness timeout expires if the
  /// link stays silent — a jumping driver must wake for it. nullopt when
  /// liveness is disabled, outside transfer, already satisfied, already
  /// flagged, or on the call-counting clock (no virtual baseline).
  std::optional<std::uint64_t> liveness_due_at() const {
    if (options_.liveness_timeout_ticks == 0 ||
        phase_ != EndpointPhase::kTransfer || sender_suspect_ ||
        satisfied() || !serviced_at_) {
      return std::nullopt;
    }
    return *serviced_at_ +
           (options_.liveness_timeout_ticks > quiet_transfer_ticks_
                ? options_.liveness_timeout_ticks - quiet_transfer_ticks_
                : 1);
  }

  /// The sender has been silent past liveness_timeout_ticks mid-transfer:
  /// the engine should treat it as departed and reroute this receiver.
  bool sender_suspect() const { return sender_suspect_; }
  /// The handshake retry budget (max_handshake_retries) is exhausted: the
  /// session can never establish and should be failed with a diagnostic.
  bool failed() const { return failed_; }

  EndpointPhase phase() const { return phase_; }
  bool transfer_started() const { return phase_ == EndpointPhase::kTransfer; }
  bool complete() const { return peer_.has_content(); }

  /// Containment estimated from the sketch exchange (0 until estimated).
  double estimated_containment() const { return estimated_containment_; }

  Peer& peer() { return peer_; }
  const Peer& peer() const { return peer_; }
  const wire::Transport& transport() const { return transport_; }

  /// Cumulative data-plane counters (symbol messages that arrived).
  std::size_t symbols_received() const { return symbols_received_; }
  std::size_t symbols_useful() const { return symbols_useful_; }
  std::size_t new_encoded_symbols() const { return new_encoded_symbols_; }
  /// Handshake bundle (re)transmissions after the first.
  std::size_t handshake_retries() const { return handshake_retries_; }

  /// Flow control: the request is satisfied — the content decoded, or
  /// (with a nonzero requested_symbols) the requested count of new
  /// encoded symbols has landed.
  bool satisfied() const {
    return complete() ||
           (options_.requested_symbols > 0 &&
            new_encoded_symbols_ >= options_.requested_symbols);
  }
  /// RequestUpdate frames issued (flow_control sessions only).
  std::size_t flow_updates_sent() const { return flow_updates_sent_; }

  /// Heap bytes this endpoint pins beyond its Peer: the buffered sender
  /// sketch plus the cached handshake bundle pieces (scale audit). The
  /// handshake caches are released on the transfer transition, so a
  /// completed session charges ~0 here.
  std::size_t memory_bytes() const {
    return (sender_sketch_ ? sender_sketch_->memory_bytes() : 0) +
           cached_message_bytes(summary_cache_) +
           cached_message_bytes(sketch_scratch_);
  }

 private:
  void send_bundle();
  void maybe_send_flow_update();
  /// Current retry interval under the capped exponential backoff: the
  /// base cadence times factor^retries, clamped to the cap. Factor 1
  /// (default) reproduces the historical fixed cadence exactly.
  std::size_t retry_interval() const {
    std::size_t interval = options_.handshake_retry_ticks;
    if (options_.handshake_backoff_factor > 1) {
      const std::size_t cap = options_.handshake_backoff_cap_ticks;
      for (std::size_t k = 0; k < handshake_retries_; ++k) {
        interval *= options_.handshake_backoff_factor;
        if (cap > 0 && interval >= cap) return cap;
      }
    }
    return interval;
  }

  Peer& peer_;
  SessionOptions options_;
  wire::Transport& transport_;
  EndpointPhase phase_ = EndpointPhase::kHandshake;
  bool started_ = false;
  std::optional<wire::Hello> sender_hello_;
  std::optional<sketch::MinwiseSketch> sender_sketch_;
  /// Summary built on the first send_bundle(); handshake retries re-send
  /// it instead of reconstructing it. The working set can grow during the
  /// handshake (origin feed, concurrent links), so a retried summary may
  /// be slightly stale — accepted: the sender only over-sends symbols the
  /// receiver since acquired, exactly as with a loss-delayed summary.
  std::optional<wire::Message> summary_cache_;
  /// Sketch message scratch: each (re)send copy-assigns the current sketch
  /// into it, reusing the minima vector's capacity, so retries allocate
  /// nothing (the remaining handshake-allocation item; frame bytes already
  /// come from the link's BufferPool).
  std::optional<wire::Message> sketch_scratch_;
  bool containment_estimated_ = false;
  double estimated_containment_ = 0.0;
  std::size_t quiet_ticks_ = 0;
  /// Liveness clock: quiet (virtual) ticks in transfer since the last
  /// arriving frame; any frame resets it.
  std::size_t quiet_transfer_ticks_ = 0;
  bool sender_suspect_ = false;
  bool failed_ = false;
  /// Virtual clock (advance_to): time of the upcoming tick(), and the time
  /// of the last tick() that ran — their difference is how many lockstep
  /// services a jumping driver skipped, all provably quiet.
  std::optional<std::uint64_t> clock_;
  std::optional<std::uint64_t> serviced_at_;
  std::size_t handshake_retries_ = 0;
  std::size_t symbols_received_ = 0;
  std::size_t symbols_useful_ = 0;
  std::size_t new_encoded_symbols_ = 0;
  /// Flow-control state: symbols acknowledged by the last update, whether
  /// the zero-remaining stop has been sent, and the arrival count at the
  /// last stop (arrivals past it mean the stop was lost — re-issue).
  std::size_t acked_symbols_ = 0;
  bool satisfied_sent_ = false;
  std::size_t received_at_stop_ = 0;
  std::size_t flow_updates_sent_ = 0;
};

/// The uploading half. Waits for the receiver's bundle, digests sketch and
/// summary into a containment estimate and a filtered domain of the peer's
/// payload slots, then serves symbols under the configured strategy, one
/// per send_symbol() call — each costing O(degree) slot reads, whatever
/// the domain size.
///
/// A sender only reads its Peer, and every scratch buffer it serves from
/// is its own: sender halves on different threads may share one Peer
/// while nothing mutates it (the sharded engine's send phase).
class SenderEndpoint {
 public:
  /// The peer and transport must outlive the endpoint.
  SenderEndpoint(const Peer& peer, SessionOptions options,
                 wire::Transport& transport);

  /// Drains the transport and advances the handshake; replies to (re)sent
  /// bundles with Hello + sketch.
  void tick();

  /// Sends one strategy-selected symbol if the handshake has completed.
  /// Returns false (and sends nothing) before that.
  bool send_symbol();

  EndpointPhase phase() const { return phase_; }
  bool transfer_active() const { return phase_ == EndpointPhase::kTransfer; }

  /// Flow control: the receiver declared itself satisfied (RequestUpdate
  /// with zero remaining) — send_symbol() serves nothing further.
  bool satisfied() const { return satisfied_; }
  /// Remaining count from the receiver's latest RequestUpdate, if any.
  std::optional<std::uint64_t> receiver_remaining() const {
    return receiver_remaining_;
  }

  double estimated_containment() const { return estimated_containment_; }
  std::size_t symbols_sent() const { return symbols_sent_; }

  const Peer& peer() const { return peer_; }
  const wire::Transport& transport() const { return transport_; }

  /// Heap bytes this endpoint pins beyond its Peer: buffered handshake
  /// summaries (released once digested), the filtered domain's slots,
  /// the recode scratch, and the cached reply sketch (scale audit).
  std::size_t memory_bytes() const {
    return (receiver_sketch_ ? receiver_sketch_->memory_bytes() : 0) +
           (receiver_bloom_ ? receiver_bloom_->memory_bytes() : 0) +
           (receiver_art_ ? receiver_art_->memory_bytes() : 0) +
           domain_slots_.capacity() * sizeof(std::uint32_t) +
           recode_scratch_.constituents.capacity() * sizeof(std::uint64_t) +
           recode_scratch_.payload.capacity() +
           cached_message_bytes(sketch_scratch_);
  }

 private:
  bool bundle_complete() const;
  void finish_handshake();
  void send_reply();
  /// Frees the buffered handshake summaries once digested into
  /// domain_slots_ and the containment estimate — at 10k+ peers the
  /// per-session Bloom/ART copies dominate sender-side memory. A duplicate
  /// bundle from a lossy link re-buffers them; the transfer branch
  /// re-releases after replying.
  void release_handshake_summaries() {
    receiver_sketch_.reset();
    receiver_bloom_.reset();
    receiver_art_.reset();
  }

  const Peer& peer_;
  SessionOptions options_;
  wire::Transport& transport_;
  util::Xoshiro256 rng_;
  EndpointPhase phase_ = EndpointPhase::kHandshake;
  std::optional<wire::Hello> receiver_hello_;
  std::optional<sketch::MinwiseSketch> receiver_sketch_;
  std::optional<filter::BloomFilter> receiver_bloom_;
  std::optional<art::ArtSummary> receiver_art_;
  bool request_seen_ = false;
  bool reply_due_ = false;
  bool satisfied_ = false;
  std::optional<std::uint64_t> receiver_remaining_;
  std::size_t symbols_desired_ = 0;
  double estimated_containment_ = 0.0;
  /// The send/recoding domain after summary filtering, as slots in the
  /// peer (slot k holds symbol_ids()[k]); empty when the strategy uses the
  /// whole working set. Filled once at the handshake, straight from the
  /// Bloom difference's positions (the ART branch maps its ids through
  /// Peer::symbol_slot): the send path reads payloads by these, never by id.
  std::vector<std::uint32_t> domain_slots_;
  /// Degree distribution over the session's domain; built at the
  /// handshake, the only place its size is known.
  std::optional<codec::DegreeDistribution> recode_distribution_;
  std::size_t symbols_sent_ = 0;
  /// Reused by send_symbol so a warm transfer builds every recoded symbol
  /// in place (no per-symbol vectors); serialized from a view.
  codec::RecodedSymbol recode_scratch_;
  /// Sketch message scratch for handshake replies (see ReceiverEndpoint).
  std::optional<wire::Message> sketch_scratch_;
};

/// One download: a ChannelLink whose `a()` end the sender endpoint drives
/// and whose `b()` end the receiver's does, plus the per-download tick
/// rule. The delivery engine's phases and bench_latency's lanes both run a
/// tick as send_phase on every download, then receive_phase on every
/// download, and jump the clock to the earliest due_at. The endpoints
/// reference the link, so a DownloadLink never moves.
class DownloadLink {
 public:
  /// Same shaping both ways. `block_size` fixes the send-credit probe.
  /// The link draws frames from `pool` (a null pool: its own; see
  /// wire::ChannelLink).
  DownloadLink(const Peer& sender, Peer& receiver,
               const SessionOptions& options, wire::ChannelConfig config,
               std::size_t block_size,
               std::shared_ptr<wire::BufferPool> pool = nullptr);
  /// `forward` shapes the data path (a -> b), `reverse` the control path.
  DownloadLink(const Peer& sender, Peer& receiver,
               const SessionOptions& options, wire::ChannelConfig forward,
               wire::ChannelConfig reverse, std::size_t block_size);

  /// The sender half of tick `now`: advance the link, then (unless the
  /// sender is down) drain and answer, and send one symbol — every tick on
  /// an untimed link, on a timed one only while the sender is unsatisfied
  /// and the token bucket holds a data frame.
  void send_phase(std::uint64_t now, bool sender_down);
  /// The receiver half of tick `now`: advance its retry and liveness clock,
  /// drain and absorb.
  void receive_phase(std::uint64_t now);
  /// The earliest tick >= `now` at which this download has work: `now` on
  /// an untimed link (its event clock advances every tick); otherwise its
  /// next frame arrival, the send credit of an up, unsatisfied sender in
  /// transfer, and while handshaking the receiver's retry deadline (a
  /// receiver never serviced on the virtual clock is due `now`), in
  /// transfer its liveness expiry. nullopt for a drained link with nothing
  /// left to send.
  std::optional<std::uint64_t> due_at(std::uint64_t now,
                                      bool sender_down) const;

  wire::ChannelLink link;
  SenderEndpoint sender;
  ReceiverEndpoint receiver;

 private:
  /// Bytes of one data frame for the send-credit probe: a payload plus
  /// room for the frame header and symbol prefix. The exact size depends
  /// on strategy and degree; the token bucket enforces the pacing, so the
  /// probe only shapes attempt cadence.
  std::size_t probe_bytes_;
};

}  // namespace icd::core
