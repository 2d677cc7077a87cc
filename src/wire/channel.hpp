#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/random.hpp"
#include "util/ring.hpp"
#include "wire/message.hpp"

/// Simulated unreliable datagram channels.
///
/// This is the substrate substitution documented in DESIGN.md: the paper's
/// prototype ran over real sockets; here a channel carries wire frames
/// between two in-process endpoints with configurable Bernoulli loss,
/// reordering and an MTU, preserving everything the evaluation measures
/// (byte counts, packet counts, loss tolerance).
///
/// Two clocks, one channel:
///
///   * The **event clock** (default): the channel models a minimum queue
///     residency of one hop — the most recently sent frame is "in flight"
///     and becomes deliverable only once a later frame arrives behind it or
///     a receive attempt finds the queue empty (which advances the
///     channel's clock). This is what makes reorder_rate bite for *every*
///     driver without alternate-drain rules, and it reproduces the
///     historical behavior bit for bit.
///   * The **virtual clock** (any timing knob set — delay_ticks,
///     jitter_ticks, or rate_bytes_per_tick): the channel keeps
///     its own simulated time, advanced by the driving engine
///     (advance_to). Each frame's departure is paced by a token bucket of
///     max(mtu, rate_bytes_per_tick) bytes refilled at rate_bytes_per_tick,
///     and its arrival is scheduled at departure + delay_ticks + one
///     uniform jitter draw; receive() delivers only frames whose arrival
///     time has passed. See DESIGN.md, "Time and scheduling model".
namespace icd::wire {

/// Seed a LossyChannel falls back to when none is set.
inline constexpr std::uint64_t kDefaultChannelSeed = 0xc0de;

struct ChannelConfig {
  /// Probability an enqueued datagram is silently dropped.
  double loss_rate = 0.0;
  /// Probability a delivered datagram is swapped with its successor. Event
  /// clock: the swap happens when a new frame arrives behind one still in
  /// the queue; the one-hop minimum residency guarantees such pairs form
  /// even under drivers that drain after every send. Virtual clock: the
  /// frame's arrival time is swapped with the previously queued frame's
  /// (jitter produces additional, organic reordering).
  double reorder_rate = 0.0;
  /// Frames larger than this are rejected (send() returns false) — symbols
  /// are sized to fit; control messages are packetized above this layer.
  std::size_t mtu = 1500;
  /// Loss/reorder randomness. Unset means "let the service pick": the
  /// delivery engine substitutes a fresh per-edge decorrelating draw via
  /// with_edge_seed; a standalone channel falls back to
  /// kDefaultChannelSeed. Any explicitly set value — including
  /// kDefaultChannelSeed itself — is honored verbatim.
  std::optional<std::uint64_t> seed;

  // --- Simulated-time shaping (all zero = the legacy event clock) --------
  /// Propagation delay in virtual ticks. A frame sent at tick t (after
  /// pacing) becomes deliverable at t + delay_ticks + jitter.
  std::uint64_t delay_ticks = 0;
  /// Jitter: each frame adds one independent uniform draw from
  /// [0, jitter_ticks] to its arrival time. Jitter can invert adjacent
  /// arrivals, so it is also a reordering source.
  std::uint64_t jitter_ticks = 0;
  /// Token-bucket rate limit in bytes per virtual tick (0 = unlimited).
  /// A frame departs when the bucket holds its size in tokens and queues
  /// behind the bucket otherwise, so a saturating sender is paced to the
  /// link rate. Lost frames still consume tokens (they were transmitted;
  /// the network ate them downstream of the sender's bottleneck).
  double rate_bytes_per_tick = 0.0;

  // --- Gilbert-Elliott burst loss (off unless ge_loss_bad > 0) -----------
  /// Two-state Markov loss: the channel flips between a good state (loss
  /// ge_loss_good) and a bad state (loss ge_loss_bad) with per-frame
  /// transition probabilities ge_p_good_bad / ge_p_bad_good. Correlated
  /// loss is where informed summaries should beat Random hardest (SRM's
  /// lesson: loss-recovery protocols are only proven under burst loss).
  /// When enabled the GE draws *replace* the Bernoulli loss_rate draw;
  /// every channel starts in the good state. Mean burst length is
  /// 1 / ge_p_bad_good frames; stationary bad-state share is
  /// ge_p_good_bad / (ge_p_good_bad + ge_p_bad_good).
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.0;
  double ge_p_good_bad = 0.0;
  double ge_p_bad_good = 0.0;

  /// Whether the Gilbert-Elliott chain replaces the Bernoulli loss draw.
  bool gilbert_elliott() const { return ge_loss_bad > 0.0; }

  /// Whether any knob requests the virtual clock.
  bool timed() const {
    return delay_ticks > 0 || jitter_ticks > 0 || rate_bytes_per_tick > 0.0;
  }
  /// Token-bucket capacity: max(mtu, rate), so any MTU-sized frame can
  /// always eventually depart (no starvation).
  double burst() const {
    return std::max(static_cast<double>(mtu), rate_bytes_per_tick);
  }
};

/// The per-edge seed rule the services share: an unset seed is replaced
/// by `draw` so edges decorrelate; an explicit seed (pinning one edge's
/// loss realization) is honored verbatim.
inline ChannelConfig with_edge_seed(ChannelConfig config,
                                    std::uint64_t draw) {
  if (!config.seed) config.seed = draw;
  return config;
}

/// Resolves one edge's shaping the way every per-edge service does it:
/// the (sender, receiver) override callback replaces `fallback` when set,
/// then the unset-seed rule applies.
inline ChannelConfig resolve_edge_config(
    const std::function<ChannelConfig(std::size_t, std::size_t)>& override_fn,
    const ChannelConfig& fallback, std::size_t sender, std::size_t receiver,
    std::uint64_t draw) {
  return with_edge_seed(
      override_fn ? override_fn(sender, receiver) : fallback, draw);
}

/// The per-direction Gilbert-Elliott chain of a LossyChannel. Each frame
/// advances the state (one transition draw) and then draws loss at the
/// state's rate, so both draws come from the owning link's RNG stream —
/// deterministic per (config, seed) exactly like the Bernoulli path it
/// replaces.
class GilbertElliott {
 public:
  explicit GilbertElliott(const ChannelConfig& config) : config_(config) {}

  /// True when this frame is lost. Advances the chain.
  bool drop(util::Xoshiro256& rng) {
    if (bad_) {
      if (rng.next_bool(config_.ge_p_bad_good)) bad_ = false;
    } else {
      if (rng.next_bool(config_.ge_p_good_bad)) bad_ = true;
    }
    return rng.next_bool(bad_ ? config_.ge_loss_bad : config_.ge_loss_good);
  }

 private:
  ChannelConfig config_;
  bool bad_ = false;
};

/// A frame scheduled on a timed link direction.
struct TimedFrame {
  std::uint64_t arrival = 0;
  std::uint64_t seq = 0;  // send order; arrival ties deliver in send order
  std::vector<std::uint8_t> frame;
};

/// The (arrival, seq)-sorted delay line of a timed LossyChannel: earliest
/// arrival at the front, near-sorted insertion scanned from the back
/// (frames are scheduled in roughly increasing arrival order, so the scan
/// is short). Kept in a RingBuffer, which allocates nothing until the
/// first frame and reuses its slots after that.
class TimedFrameQueue {
 public:
  bool empty() const { return queue_.empty(); }

  /// Arrival time of the earliest queued frame, if any.
  std::optional<std::uint64_t> next_arrival() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.front().arrival;
  }

  /// Inserts preserving the sort. With `swap_with_last` (an adjacent
  /// reorder draw), the new frame first exchanges arrival times with the
  /// latest-scheduled queued frame and both are re-placed, so the
  /// invariant — and next_arrival() — stay correct.
  void insert(TimedFrame frame, bool swap_with_last);

  /// Pops the earliest frame if its arrival is <= now.
  std::optional<std::vector<std::uint8_t>> pop_due(std::uint64_t now);

  /// Teardown: clamps every arrival to `now`, preserving order.
  void collapse_to(std::uint64_t now);

  /// Heap bytes the delay line pins (frames + per-entry bookkeeping).
  std::size_t memory_bytes() const {
    std::size_t bytes = queue_.size() * sizeof(TimedFrame);
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      bytes += queue_[i].frame.capacity();
    }
    return bytes;
  }

 private:
  void place(TimedFrame frame);

  util::RingBuffer<TimedFrame> queue_;
};

/// Sender-side simulated-time shaping of a timed LossyChannel: a virtual
/// clock, token-bucket pacing, and delay/jitter arrival scheduling.
/// Loss/reorder draws stay with the owning link (they share its RNG
/// stream).
class LinkShaper {
 public:
  explicit LinkShaper(const ChannelConfig& config)
      : config_(config), tokens_(config.burst()) {}

  std::uint64_t now() const { return now_; }
  void advance_to(std::uint64_t t) { now_ = std::max(now_, t); }

  /// Token-bucket departure time for a frame of `size` bytes sent at
  /// now(); consumes the tokens.
  std::uint64_t pace_departure(std::size_t size);

  /// Earliest virtual time a frame of `bytes` could depart given the
  /// bucket's current fill, without consuming anything.
  std::uint64_t send_ready_at(std::size_t bytes) const;

  /// Arrival time for a frame departing at `depart`: one delay_ticks plus
  /// one uniform [0, jitter_ticks] draw from `rng`.
  std::uint64_t schedule_arrival(std::uint64_t depart, util::Xoshiro256& rng);

  /// Frames whose departure the token bucket pushed past their send tick.
  std::size_t throttled() const { return throttled_; }

 private:
  ChannelConfig config_;
  std::uint64_t now_ = 0;
  /// Bucket fill level at `bucket_time_` (in the future while a backlog
  /// is queued behind the bucket).
  double tokens_;
  std::uint64_t bucket_time_ = 0;
  std::size_t throttled_ = 0;
};

class LossyChannel {
 public:
  explicit LossyChannel(ChannelConfig config);

  /// Enqueues one frame. Returns false (and sends nothing) if the frame
  /// exceeds the MTU. Event clock: the frame is in flight (not yet
  /// deliverable) until the next send or an empty receive advances the
  /// clock. Virtual clock: the frame is paced through the token bucket and
  /// scheduled for arrival delay + jitter ticks after departure.
  bool send(std::vector<std::uint8_t> frame);

  /// Convenience: encode + send a control message.
  bool send_message(const Message& message) {
    return send(encode_frame(message));
  }

  /// Whether any frame is queued or still in flight (deliverable or not).
  bool pending() const {
    return !queue_.empty() || in_flight_.has_value() || !timed_queue_.empty();
  }

  /// Pops the next deliverable datagram. Empty when nothing is deliverable
  /// right now. Event clock: an empty result with pending() still true
  /// means the in-flight frame just completed its hop and the next
  /// receive() gets it. Virtual clock: frames become deliverable when
  /// now() reaches their arrival time (advance_to).
  std::vector<std::uint8_t> receive();

  /// Receives the next pending datagram and decodes it as a control
  /// message (decode_control_frame); throws if nothing is pending. Waits
  /// out the in-flight hop (event clock) or advances now() to the next
  /// arrival (virtual clock) if needed.
  Message receive_message();

  /// Teardown: makes every queued frame deliverable immediately (nothing
  /// further will be sent, so neither clock would ever release them).
  void flush();

  // --- Virtual clock (timed() configs; no-ops otherwise) ------------------

  /// True when the config requests simulated-time shaping.
  bool timed() const { return config_.timed(); }

  /// Current virtual time. Starts at 0; never moves backwards.
  std::uint64_t now() const { return shaper_.now(); }

  /// Advances the virtual clock (monotonic; a smaller t is ignored).
  void advance_to(std::uint64_t t) { shaper_.advance_to(t); }

  /// Arrival time of the earliest queued frame, if any. Already-due frames
  /// report their (past) arrival time, not now().
  std::optional<std::uint64_t> next_arrival_at() const;

  /// The earliest virtual time at which this direction can deliver
  /// anything — the event-loop planning surface. Timed: the next queued
  /// arrival. Untimed: 0 (due immediately) while a frame is queued or in
  /// flight, because the event clock advances with every tick and can
  /// release the hop at any receive. nullopt = provably nothing pending.
  std::optional<std::uint64_t> next_event_time() const {
    if (timed()) return next_arrival_at();
    return pending() ? std::optional<std::uint64_t>{0} : std::nullopt;
  }

  /// Earliest virtual time a frame of `bytes` could *depart* given the
  /// token bucket's current fill — the scheduler's send-credit probe.
  /// Returns now() when unpaced or when the bucket already holds enough.
  std::uint64_t send_ready_at(std::size_t bytes) const {
    return shaper_.send_ready_at(bytes);
  }

  // --- Fault injection -----------------------------------------------------

  /// Link blackout: while set, every send is eaten whole *before* any
  /// loss/reorder RNG draw — no randomness is consumed, so a blackout
  /// window perturbs nothing outside itself and every driver drops the
  /// identical frame set. Frames already in flight still arrive
  /// (the partition cuts the wire, not the queue).
  void set_blackout(bool active) { blackout_ = active; }
  bool blackout() const { return blackout_; }
  /// Frames eaten by blackout windows (also counted in dropped()).
  std::size_t blackout_drops() const { return blackout_drops_; }

  /// Statistics.
  std::size_t sent() const { return sent_; }
  std::size_t dropped() const { return dropped_; }
  std::size_t oversized() const { return oversized_; }
  std::size_t sent_bytes() const { return sent_bytes_; }
  std::size_t delivered_bytes() const { return delivered_bytes_; }
  /// Frames whose departure the token bucket pushed past their send tick.
  std::size_t throttled() const { return shaper_.throttled(); }

  /// Heap bytes this direction pins: queued / in-flight frame buffers plus
  /// the timed-queue entries (scale audit; the shared BufferPool is charged
  /// once by the owning link, not here).
  std::size_t memory_bytes() const {
    std::size_t bytes = in_flight_ ? in_flight_->capacity() : 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      bytes += queue_[i].capacity() + sizeof(std::vector<std::uint8_t>);
    }
    return bytes + timed_queue_.memory_bytes();
  }

  const ChannelConfig& config() const { return config_; }

 private:
  ChannelConfig config_;
  util::Xoshiro256 rng_;
  LinkShaper shaper_;
  /// Present only for Gilbert-Elliott configs; replaces the Bernoulli
  /// loss draw (the RNG stream is shared, consumed two draws per frame).
  std::optional<GilbertElliott> ge_;
  bool blackout_ = false;
  std::size_t blackout_drops_ = 0;
  util::RingBuffer<std::vector<std::uint8_t>> queue_;
  /// Event clock: the most recently sent frame, one hop from deliverable.
  std::optional<std::vector<std::uint8_t>> in_flight_;
  /// Virtual clock: frames ordered by (arrival, seq).
  TimedFrameQueue timed_queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t sent_ = 0;
  std::size_t dropped_ = 0;
  std::size_t oversized_ = 0;
  std::size_t sent_bytes_ = 0;
  std::size_t delivered_bytes_ = 0;
};

}  // namespace icd::wire
