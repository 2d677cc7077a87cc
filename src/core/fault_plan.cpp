#include "core/fault_plan.hpp"

#include <algorithm>

namespace icd::core {

bool FaultPlan::crashed_at(std::size_t peer, std::uint64_t tick) const {
  // Down iff the latest crash at or before `tick` is later than every
  // restart at or before `tick`. Plans are tiny (a handful of entries per
  // scenario), so linear scans beat any index.
  std::optional<std::uint64_t> last_crash;
  for (const Crash& crash : crashes) {
    if (crash.peer == peer && crash.at <= tick) {
      last_crash = last_crash ? std::max(*last_crash, crash.at) : crash.at;
    }
  }
  if (!last_crash) return false;
  for (const Restart& restart : restarts) {
    if (restart.peer == peer && restart.at <= tick &&
        restart.at >= *last_crash) {
      return false;
    }
  }
  return true;
}

bool FaultPlan::stalled_at(std::size_t peer, std::uint64_t tick) const {
  for (const Stall& stall : stalls) {
    if (stall.peer == peer && stall.from <= tick && tick < stall.until) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::blackout_at(std::size_t sender, std::size_t receiver,
                            std::uint64_t tick) const {
  for (const Blackout& window : blackouts) {
    if (window.sender == sender && window.receiver == receiver &&
        window.from <= tick && tick < window.until) {
      return true;
    }
  }
  return false;
}

std::optional<std::uint64_t> FaultPlan::next_boundary_from(
    std::uint64_t tick) const {
  std::optional<std::uint64_t> next;
  const auto consider = [&](std::uint64_t at) {
    if (at >= tick) next = next ? std::min(*next, at) : at;
  };
  for (const Crash& crash : crashes) consider(crash.at);
  for (const Restart& restart : restarts) consider(restart.at);
  for (const Join& join : joins) consider(join.at);
  for (const Stall& stall : stalls) {
    consider(stall.from);
    consider(stall.until);
  }
  for (const Blackout& window : blackouts) {
    consider(window.from);
    consider(window.until);
  }
  return next;
}

}  // namespace icd::core
