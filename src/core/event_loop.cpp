#include "core/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <tuple>

#include "core/endpoint.hpp"

namespace icd::core {

namespace {

/// Strict (at, kind, key) order; `after` = the min-heap comparator.
inline bool after(const Event& a, const Event& b) {
  return std::tie(a.at, a.kind, a.key) > std::tie(b.at, b.kind, b.key);
}

}  // namespace

void EventLoop::schedule(std::uint64_t at, EventKind kind, std::uint64_t key) {
  heap_.push_back(Event{at, kind, key});
  std::push_heap(heap_.begin(), heap_.end(), after);
}

std::optional<Event> EventLoop::peek() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front();
}

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

bool EventLoop::poll_wait(std::uint64_t max_wait_ticks) {
  const std::uint64_t start = wall_now();
  // The sleep deadline: the earliest scheduled virtual event, capped so a
  // deep queue can never park the loop indefinitely. An event already due
  // (or an empty cap) degrades to a non-blocking readability check.
  std::uint64_t due = start + max_wait_ticks;
  if (const auto next = peek(); next && next->at < due) {
    due = std::max(next->at, start);
  }
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

namespace {

/// Same strict (at, kind, key) order as the EventLoop heap.
struct EntryAfter {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return std::tie(a.event.at, a.event.kind, a.event.key) >
           std::tie(b.event.at, b.event.kind, b.event.key);
  }
};

}  // namespace

void PlanningQueue::ensure_keys(std::size_t count) {
  if (count <= stamps_.size()) return;
  stamps_.resize(count, 0);
  live_.resize(count, 0);
  live_event_.resize(count);
}

void PlanningQueue::begin_rebuild() {
  heap_.clear();
  std::fill(live_.begin(), live_.end(), 0);
  live_count_ = 0;
  pending_full_ = false;
  ++stats_.full_rebuilds;
}

void PlanningQueue::set(std::uint64_t key, const std::optional<Event>& event) {
  ensure_keys(key + 1);
  ++stamps_[key];  // invalidates any heap entry this key had
  if (!event) {
    if (live_[key]) {
      live_[key] = 0;
      --live_count_;
    }
    return;
  }
  if (!live_[key]) {
    live_[key] = 1;
    ++live_count_;
  }
  live_event_[key] = *event;
  heap_.push_back(Entry{*event, stamps_[key]});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  ++stats_.pushes;
  if (heap_.size() > 2 * live_count_ + 64) compact();
}

void PlanningQueue::drop_stale_front() {
  while (!heap_.empty() && !fresh(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    ++stats_.stale_skipped;
  }
}

void PlanningQueue::take_due(std::uint64_t now,
                             std::vector<std::uint64_t>& out) {
  for (;;) {
    drop_stale_front();
    if (heap_.empty() || heap_.front().event.at >= now) return;
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    const std::uint64_t key = heap_.back().event.key;
    heap_.pop_back();
    live_[key] = 0;
    --live_count_;
    ++stats_.pops;
    out.push_back(key);
  }
}

std::optional<Event> PlanningQueue::peek() {
  drop_stale_front();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().event;
}

void PlanningQueue::compact() {
  heap_.clear();
  for (std::uint64_t key = 0; key < live_.size(); ++key) {
    if (live_[key]) heap_.push_back(Entry{live_event_[key], stamps_[key]});
  }
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  ++stats_.compactions;
}

std::size_t data_frame_bytes_hint(std::size_t block_size) {
  // Frame header + symbol id/constituents prefix on top of one payload.
  return block_size + 64;
}

void schedule_download_events(EventLoop& loop, const SenderEndpoint& sender,
                              const ReceiverEndpoint& receiver,
                              const LinkTimes& times, std::uint64_t now,
                              std::uint64_t key) {
  if (!times.timed) {
    // Event-clock link: one hop of residency advances with every tick, so
    // the download is genuinely due each tick — nothing to skip.
    loop.schedule(now, EventKind::kService, key);
    return;
  }
  if (times.next_arrival) {
    loop.schedule(std::max(*times.next_arrival, now), EventKind::kFrameArrival,
                  key);
  }
  if (!receiver.transfer_started() || !sender.transfer_active()) {
    // Handshaking: between arrivals the observable work is the receiver's
    // retry clock, which fires at a known virtual tick. A receiver that
    // has not yet been serviced under the virtual clock reports no
    // deadline and is conservatively due now. A receiver that exhausted
    // its retry budget (failed()) has no future retry — the engine tears
    // the session down; scheduling nothing is what lets the span close.
    if (!receiver.failed()) {
      const auto retry = receiver.retry_due_at();
      loop.schedule(std::max(retry.value_or(now), now),
                    EventKind::kHandshakeRetry, key);
    }
    // A sender already in transfer (its reply still crossing toward the
    // receiver) streams on every credit tick of this window, exactly as
    // the lockstep loop drives it.
    if (!times.sender_down && sender.transfer_active() &&
        !sender.satisfied() && times.send_credit_at) {
      loop.schedule(std::max(*times.send_credit_at, now),
                    EventKind::kSendCredit, key);
    }
    return;
  }
  if (!times.sender_down && !sender.satisfied() && times.send_credit_at) {
    loop.schedule(std::max(*times.send_credit_at, now), EventKind::kSendCredit,
                  key);
  }
  // Sender-liveness expiry is a real event: the service at that tick is
  // what declares the silent sender suspect, so a jumping driver must not
  // skip past it.
  if (const auto liveness = receiver.liveness_due_at()) {
    loop.schedule(std::max(*liveness, now), EventKind::kLivenessProbe, key);
  }
  // A drained link whose sender is satisfied schedules nothing: the
  // receiver's flow-control re-issues ride arrival services, so with no
  // arrivals pending there is provably nothing left to do.
}

}  // namespace icd::core
