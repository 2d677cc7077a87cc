#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

/// The clock of simulated time.
///
/// Every link has a virtual clock, but a driver that iterates tick by tick
/// burns thousands of empty iterations between frame arrivals on a
/// high-RTT rate-limited swarm. A driver that knows when each of its
/// downloads is next due (download_due_at: frame arrivals, token-bucket
/// send credits, handshake retry and liveness deadlines) can jump the
/// clock straight to the earliest one (EventLoop::skip_to), executing only
/// ticks where something happens; ticks proven empty are counted, never
/// run.
///
/// Determinism: the delivery engine reads only the earliest due time —
/// which tick to execute next. What runs inside a tick is the fixed
/// two-phase order (every sender half, then every receiver half), so a
/// jumped run executes exactly the ticks a lockstep run finds non-empty,
/// and the two stay bit-for-bit equal. See DESIGN.md, "Time and scheduling
/// model".
namespace icd::core {

class SenderEndpoint;
class ReceiverEndpoint;

/// The global virtual clock plus the jump accounting, and a wall-clock
/// mode that sleeps across empty spans instead of jumping them.
class EventLoop {
 public:
  // --- Global virtual clock ------------------------------------------------
  std::uint64_t now() const { return now_; }

  /// Advances the clock (monotonic; a smaller t is ignored).
  void advance_to(std::uint64_t t) { now_ = std::max(now_, t); }

  /// Jumps the clock across a span of provably empty ticks: every tick in
  /// [now, t) is counted as skipped, never executed. Monotonic like
  /// advance_to.
  void skip_to(std::uint64_t t) {
    if (t > now_) {
      ticks_skipped_ += t - now_;
      now_ = t;
    }
  }

  // --- Accounting ----------------------------------------------------------
  /// Virtual ticks jumped over without executing.
  std::uint64_t ticks_skipped() const { return ticks_skipped_; }

  // --- Wall-clock mode -----------------------------------------------------
  // The real-network driver (examples/swarm_node): virtual ticks are bound
  // to real time, tick i falling at epoch + i * ns_per_tick with the epoch
  // recorded here. Instead of jumping the clock across empty spans, a
  // run loop built on poll_wait() *sleeps* across them — blocking in
  // ::poll on the watched sockets until the caller's next due tick
  // (handshake retry, data budget, transmit backlog), so the same endpoint
  // state machines run unmodified against real sockets. See DESIGN.md,
  // "Real-network backend".

  /// Enters wall-clock mode: tick 0 is now, ticks last `ns_per_tick`.
  void enable_wall_clock(std::uint64_t ns_per_tick);
  bool wall_clock() const { return wall_enabled_; }
  std::uint64_t ns_per_tick() const { return wall_ns_per_tick_; }

  /// The current wall time, expressed in virtual ticks since the epoch.
  std::uint64_t wall_now() const;

  /// Registers / removes a socket watched for readability by poll_wait().
  void watch_fd(int fd);
  void unwatch_fd(int fd);

  /// Blocks until a watched fd turns readable or the wall clock reaches
  /// tick `due`, then advances now() to the wall tick. A `due` already
  /// past degrades to a non-blocking readability check. Ticks slept across
  /// count as skipped — the wall-clock analogue of skip_to. Returns true
  /// when at least one watched fd is readable. Requires enable_wall_clock.
  bool poll_wait(std::uint64_t due);

 private:
  std::uint64_t now_ = 0;
  std::uint64_t ticks_skipped_ = 0;
  /// Wall-clock mode state (enable_wall_clock / poll_wait).
  bool wall_enabled_ = false;
  std::uint64_t wall_ns_per_tick_ = 1'000'000;  // 1 ms
  std::chrono::steady_clock::time_point wall_epoch_{};
  std::vector<int> watched_fds_;
};

/// Link-derived inputs to the planning decision, gathered by the engine
/// from the download's ChannelLink.
struct LinkTimes {
  /// False = legacy event-clock link: service every tick.
  bool timed = false;
  /// Earliest arrival of a queued frame in either direction.
  std::optional<std::uint64_t> next_arrival;
  /// Earliest departure credit for one data frame (token bucket).
  std::optional<std::uint64_t> send_credit_at;
  /// The serving peer is crashed or stalled (FaultPlan): the engine will
  /// not run the sender half, so send credits are meaningless; the
  /// receiver is serviced for arrivals, retries, and liveness expiry only.
  bool sender_down = false;
};

/// Estimated wire size of one data-plane frame, used for the send-credit
/// probe (the exact size depends on strategy and degree; pacing itself is
/// enforced by the channel's token bucket, so the hint only shapes attempt
/// cadence).
std::size_t data_frame_bytes_hint(std::size_t block_size);

/// Cross-tick planning: the earliest tick >= `now` at which one download
/// has work — its next frame arrival; while handshaking, the receiver's
/// retry deadline (empty handshake ticks are no-ops once the retry clock is
/// virtual-time-based, which is what makes the span skippable); in
/// transfer, the next send credit of an up, unsatisfied sender and the
/// receiver's liveness expiry. nullopt for a drained link whose sender is
/// satisfied. Untimed links are due `now` (the event clock advances every
/// tick).
std::optional<std::uint64_t> download_due_at(const SenderEndpoint& sender,
                                             const ReceiverEndpoint& receiver,
                                             const LinkTimes& times,
                                             std::uint64_t now);

}  // namespace icd::core
