#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "codec/solver_stats.hpp"

/// Deterministic fault injection for the delivery engine.
///
/// A FaultPlan is a declarative schedule of membership and link faults —
/// peer crashes, stalls, restarts, flash-crowd joins, and link blackout
/// windows — expressed in virtual ticks. Every driver (lockstep, jumped,
/// any shard count) honors one plan identically: run_until folds the next
/// fault boundary into its jump target (so the jump stops on it), fault
/// *application* happens at the top of the tick (the coordinator fires
/// membership events in plan order, and a crash phase retires the crashed
/// peers' downloads on their shards), and all fault machinery is strictly
/// inert when no plan is set — every historical trajectory is bit-for-bit
/// unchanged.
///
/// Semantics (see DESIGN.md, "Failure model"):
///   * crash    — the peer is down from `at` until its next restart: it is
///                not serviced, not origin-fed, and its own downloads are
///                torn down at the crash tick (wire costs banked). Its
///                decoded content *survives* — a restart rejoins with the
///                partial working set it held, and the next refresh
///                re-handshakes with the current summary (session
///                resumption; already-decoded symbols are not re-served).
///   * stall    — as down, but scoped to [from, until): the peer freezes
///                (no servicing, no origin feed) and thaws on its own.
///                Sessions stay up; its receivers discover the silence
///                through their liveness timeouts.
///   * restart  — the peer is up again from `at`; re-admitted by the next
///                refresh.
///   * join     — `count` fresh peers enter at `at` (flash crowd).
///   * blackout — the directed edge (sender, receiver) eats every frame
///                sent during [from, until): a partition of that link.
///                Frames already in flight still arrive.
namespace icd::core {

struct FaultPlan {
  struct Crash {
    std::uint64_t at = 0;
    std::size_t peer = 0;
  };
  struct Restart {
    std::uint64_t at = 0;
    std::size_t peer = 0;
  };
  struct Stall {
    std::uint64_t from = 0;
    std::uint64_t until = 0;  // exclusive
    std::size_t peer = 0;
  };
  struct Join {
    std::uint64_t at = 0;
    std::size_t count = 1;
    bool origin_fed = false;
  };
  struct Blackout {
    std::uint64_t from = 0;
    std::uint64_t until = 0;  // exclusive
    std::size_t sender = 0;
    std::size_t receiver = 0;
  };

  std::vector<Crash> crashes;
  std::vector<Restart> restarts;
  std::vector<Stall> stalls;
  std::vector<Join> joins;
  std::vector<Blackout> blackouts;

  bool empty() const {
    return crashes.empty() && restarts.empty() && stalls.empty() &&
           joins.empty() && blackouts.empty();
  }

  /// Crashed at or before `tick` with no restart in between.
  bool crashed_at(std::size_t peer, std::uint64_t tick) const;
  /// Inside a stall window.
  bool stalled_at(std::size_t peer, std::uint64_t tick) const;
  /// Down for servicing purposes: crashed or stalled.
  bool down_at(std::size_t peer, std::uint64_t tick) const {
    return crashed_at(peer, tick) || stalled_at(peer, tick);
  }
  /// The directed edge is inside a blackout window.
  bool blackout_at(std::size_t sender, std::size_t receiver,
                   std::uint64_t tick) const;

  /// Earliest fault boundary at or after `tick` (crash/restart/join
  /// ticks, stall and blackout window edges) — the planning barrier that
  /// keeps jumped runs lockstep-identical across boundaries.
  std::optional<std::uint64_t> next_boundary_from(std::uint64_t tick) const;
};

/// One abandoned download session: the engine gave up on `peer` at `tick`
/// because its liveness timeout expired mid-transfer or its handshake
/// retry budget ran out.
struct FailedPeer {
  enum class Reason : std::uint8_t { kLivenessTimeout, kHandshakeExhausted };
  std::size_t peer = 0;
  std::uint64_t tick = 0;
  Reason reason = Reason::kLivenessTimeout;
};

/// Per-receiver session outcome: the diagnostic surface for "my sender
/// died" — completion state plus every session this receiver abandoned.
struct SessionResult {
  bool completed = false;
  std::uint64_t completion_tick = 0;
  std::vector<FailedPeer> failed_peers;
  /// Bytes of decoder/working-set state the peer currently pins (the
  /// per-peer half of the scale memory audit; see MemoryAudit). Defaulted
  /// so callers that only care about completion can keep brace-initing.
  std::size_t memory_bytes = 0;
  /// Solver op counters across both of the peer's peeling levels
  /// (substitution incidences, recoveries, redundant arrivals).
  codec::DecoderStats decoder_stats;
};

/// The mutable fault bookkeeping the engine embeds: a cursor over the
/// plan's scheduled membership events (so each fires exactly once, at the
/// top of the first executed tick at or past its time) and the suspect
/// set fed by liveness expiries and handshake exhaustion. Every mutating
/// call (apply_until, mark_suspect) is coordinator-side, between pool
/// runs. The phase workers read only the immutable plan: down(),
/// blackout() and any_blackouts().
class FaultTracker {
 public:
  FaultTracker() = default;
  explicit FaultTracker(std::shared_ptr<const FaultPlan> plan)
      : plan_(std::move(plan)) {
    if (plan_) {
      crash_applied_.assign(plan_->crashes.size(), false);
      join_applied_.assign(plan_->joins.size(), false);
    }
  }

  bool active() const { return plan_ && !plan_->empty(); }

  /// Crashed or stalled at `tick` (false without a plan).
  bool down(std::size_t peer, std::uint64_t tick) const {
    return plan_ && plan_->down_at(peer, tick);
  }
  bool blackout(std::size_t sender, std::size_t receiver,
                std::uint64_t tick) const {
    return plan_ && plan_->blackout_at(sender, receiver, tick);
  }
  bool any_blackouts() const { return plan_ && !plan_->blackouts.empty(); }

  /// Applies membership events due at or before `now` that have not fired
  /// yet: `on_crash(peer)` for each new crash (the engine tears the
  /// peer's downloads down), `on_join(count, origin_fed)` for each join.
  /// Within one call, crashes fire before joins, each in plan order —
  /// deterministic, and exact because fault boundaries are planning
  /// barriers (no two distinct fault ticks collapse into one call).
  template <typename OnCrash, typename OnJoin>
  void apply_until(std::uint64_t now, OnCrash&& on_crash, OnJoin&& on_join) {
    if (!plan_) return;
    for (std::size_t i = crash_cursor_; i < plan_->crashes.size(); ++i) {
      if (plan_->crashes[i].at > now) continue;
      if (!crash_applied_[i]) {
        crash_applied_[i] = true;
        on_crash(plan_->crashes[i].peer);
      }
    }
    for (std::size_t i = join_cursor_; i < plan_->joins.size(); ++i) {
      if (plan_->joins[i].at > now) continue;
      if (!join_applied_[i]) {
        join_applied_[i] = true;
        on_join(plan_->joins[i].count, plan_->joins[i].origin_fed);
      }
    }
    advance_cursors();
  }

  /// Marks `peer` suspect until `until` (exclusive) — excluded from
  /// admission candidate pools while suspect, then organically
  /// re-admitted (a still-dead peer just fails again).
  void mark_suspect(std::size_t peer, std::uint64_t until) {
    auto& expiry = suspects_[peer];
    expiry = std::max(expiry, until);
  }
  bool suspect(std::size_t peer, std::uint64_t tick) const {
    const auto it = suspects_.find(peer);
    return it != suspects_.end() && it->second > tick;
  }

  /// Joins not applied yet: run loops must not declare the swarm done (and
  /// planning must not close the event horizon) while a flash crowd is
  /// still scheduled to arrive.
  bool pending_joins() const { return join_cursor_ < join_applied_.size(); }

  /// Plan boundary for cross-tick planning (nullopt without a plan).
  std::optional<std::uint64_t> next_boundary_from(std::uint64_t tick) const {
    if (!plan_) return std::nullopt;
    return plan_->next_boundary_from(tick);
  }

 private:
  void advance_cursors() {
    while (crash_cursor_ < crash_applied_.size() &&
           crash_applied_[crash_cursor_]) {
      ++crash_cursor_;
    }
    while (join_cursor_ < join_applied_.size() &&
           join_applied_[join_cursor_]) {
      ++join_cursor_;
    }
  }

  std::shared_ptr<const FaultPlan> plan_;
  std::vector<bool> crash_applied_;
  std::vector<bool> join_applied_;
  std::size_t crash_cursor_ = 0;
  std::size_t join_cursor_ = 0;
  /// peer -> suspicion expiry tick (exclusive).
  std::map<std::size_t, std::uint64_t> suspects_;
};

}  // namespace icd::core
