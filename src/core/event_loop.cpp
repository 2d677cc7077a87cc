#include "core/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>

#include "core/endpoint.hpp"

namespace icd::core {

void EventLoop::enable_wall_clock(std::uint64_t ns_per_tick) {
  wall_enabled_ = true;
  wall_ns_per_tick_ = std::max<std::uint64_t>(1, ns_per_tick);
  wall_epoch_ = std::chrono::steady_clock::now();
}

std::uint64_t EventLoop::wall_now() const {
  if (!wall_enabled_) return now_;
  const auto elapsed = std::chrono::steady_clock::now() - wall_epoch_;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                      .count();
  return static_cast<std::uint64_t>(ns < 0 ? 0 : ns) / wall_ns_per_tick_;
}

void EventLoop::watch_fd(int fd) {
  if (std::find(watched_fds_.begin(), watched_fds_.end(), fd) ==
      watched_fds_.end()) {
    watched_fds_.push_back(fd);
  }
}

void EventLoop::unwatch_fd(int fd) {
  watched_fds_.erase(std::remove(watched_fds_.begin(), watched_fds_.end(), fd),
                     watched_fds_.end());
}

bool EventLoop::poll_wait(std::uint64_t due) {
  const std::uint64_t start = wall_now();
  int timeout_ms = 0;
  if (due > start) {
    // Round up: waking a fraction of a tick late is harmless, waking early
    // spins. Cap defensively at one minute per poll round.
    const std::uint64_t ns = (due - start) * wall_ns_per_tick_;
    timeout_ms = static_cast<int>(
        std::min<std::uint64_t>(ns / 1'000'000 + 1, 60'000));
  }
  std::vector<pollfd> fds;
  fds.reserve(watched_fds_.size());
  for (const int fd : watched_fds_) fds.push_back(pollfd{fd, POLLIN, 0});
  int ready = 0;
  do {
    ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  } while (ready < 0 && errno == EINTR);
  // Ticks slept across were provably empty for this process — the
  // wall-clock analogue of skip_to's jump accounting.
  const std::uint64_t wall = wall_now();
  if (wall > now_ + 1) ticks_skipped_ += wall - now_ - 1;
  advance_to(wall);
  return ready > 0;
}

std::size_t data_frame_bytes_hint(std::size_t block_size) {
  // Frame header + symbol id/constituents prefix on top of one payload.
  return block_size + 64;
}

std::optional<std::uint64_t> download_due_at(const SenderEndpoint& sender,
                                             const ReceiverEndpoint& receiver,
                                             const LinkTimes& times,
                                             std::uint64_t now) {
  // Event-clock link: one hop of residency advances with every tick, so
  // the download is genuinely due each tick — nothing to skip.
  if (!times.timed) return now;
  std::optional<std::uint64_t> due = times.next_arrival;
  const auto consider = [&due](std::optional<std::uint64_t> at) {
    if (at && (!due || *at < *due)) due = at;
  };
  if (!receiver.transfer_started() || !sender.transfer_active()) {
    // Handshaking: between arrivals the observable work is the receiver's
    // retry clock, which fires at a known virtual tick. A receiver that
    // has not yet been serviced under the virtual clock reports no
    // deadline and is conservatively due now. A receiver that exhausted
    // its retry budget (failed()) has no future retry — the engine tears
    // the session down; planning nothing is what lets the span close.
    if (!receiver.failed()) consider(receiver.retry_due_at().value_or(now));
    // A sender already in transfer (its reply still crossing toward the
    // receiver) streams on every credit tick of this window, exactly as
    // the lockstep loop drives it.
    if (!times.sender_down && sender.transfer_active() && !sender.satisfied()) {
      consider(times.send_credit_at);
    }
  } else {
    if (!times.sender_down && !sender.satisfied()) {
      consider(times.send_credit_at);
    }
    // Sender-liveness expiry is a real event: the service at that tick is
    // what declares the silent sender suspect, so a jumping driver must
    // not skip past it.
    consider(receiver.liveness_due_at());
  }
  // A drained link whose sender is satisfied plans nothing: the receiver's
  // flow-control re-issues ride arrival services, so with no arrivals
  // pending there is provably nothing left to do.
  if (!due) return std::nullopt;
  return std::max(*due, now);
}

}  // namespace icd::core
