#include "wire/channel.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace icd::wire {

// --- TimedFrameQueue --------------------------------------------------------

void TimedFrameQueue::place(TimedFrame frame) {
  // Append, then swap the frame forward past every later (arrival, seq):
  // one step of insertion sort, usually zero swaps.
  queue_.push_back(std::move(frame));
  for (std::size_t i = queue_.size() - 1; i > 0; --i) {
    TimedFrame& prev = queue_[i - 1];
    TimedFrame& next = queue_[i];
    if (prev.arrival < next.arrival ||
        (prev.arrival == next.arrival && prev.seq < next.seq)) {
      break;
    }
    std::swap(prev, next);
  }
}

void TimedFrameQueue::insert(TimedFrame frame, bool swap_with_last) {
  if (swap_with_last && !queue_.empty()) {
    // Adjacent reorder: the new frame and the latest-scheduled queued one
    // exchange arrival times; both are re-placed so the (arrival, seq)
    // sort — and next_arrival() — stay correct.
    TimedFrame last = queue_.pop_back();
    std::swap(last.arrival, frame.arrival);
    place(std::move(last));
  }
  place(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> TimedFrameQueue::pop_due(
    std::uint64_t now) {
  if (queue_.empty() || queue_.front().arrival > now) return std::nullopt;
  return queue_.pop_front().frame;
}

void TimedFrameQueue::collapse_to(std::uint64_t now) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    queue_[i].arrival = std::min(queue_[i].arrival, now);
  }
}

// --- LinkShaper ------------------------------------------------------------

std::uint64_t LinkShaper::pace_departure(std::size_t size) {
  if (config_.rate_bytes_per_tick <= 0.0) return now_;
  const double rate = config_.rate_bytes_per_tick;
  const double burst = config_.burst();
  // A backlog leaves bucket_time_ in the future (the fill is known at the
  // last scheduled departure); earlier frames must not refill from a
  // wrapped "negative" elapsed time.
  const std::uint64_t base = std::max(now_, bucket_time_);
  tokens_ = std::min(burst,
                     tokens_ + rate * static_cast<double>(base - bucket_time_));
  bucket_time_ = base;
  const double need = static_cast<double>(size);
  std::uint64_t depart = base;
  if (tokens_ >= need) {
    tokens_ -= need;
  } else {
    // Depart once the deficit has refilled; the wait's own refill is spent
    // on this frame (leftover fractions stay in the bucket).
    const auto wait =
        static_cast<std::uint64_t>(std::ceil((need - tokens_) / rate));
    tokens_ = std::min(burst, tokens_ + rate * static_cast<double>(wait)) - need;
    bucket_time_ = base + wait;
    depart = base + wait;
  }
  if (depart > now_) ++throttled_;
  return depart;
}

std::uint64_t LinkShaper::send_ready_at(std::size_t bytes) const {
  if (config_.rate_bytes_per_tick <= 0.0) return now_;
  const double rate = config_.rate_bytes_per_tick;
  const std::uint64_t base = std::max(now_, bucket_time_);
  const double available = std::min(
      config_.burst(),
      tokens_ + rate * static_cast<double>(base - bucket_time_));
  // A probe larger than the bucket (a frame above the MTU, which the
  // transport fragments) is ready on a full bucket; without this clamp
  // the probe would name a time that never satisfies itself and starve
  // the link.
  const double need =
      std::min(static_cast<double>(bytes), config_.burst());
  if (available >= need) return base;
  return base + static_cast<std::uint64_t>(
                    std::ceil((need - available) / rate));
}

std::uint64_t LinkShaper::schedule_arrival(std::uint64_t depart,
                                           util::Xoshiro256& rng) {
  std::uint64_t at = depart + config_.delay_ticks;
  if (config_.jitter_ticks > 0) at += rng.next_below(config_.jitter_ticks + 1);
  return at;
}

// --- LossyChannel ----------------------------------------------------------

LossyChannel::LossyChannel(ChannelConfig config)
    : config_(config), rng_(config.seed.value_or(kDefaultChannelSeed)),
      shaper_(config) {
  if (config_.gilbert_elliott()) ge_.emplace(config_);
}

bool LossyChannel::send(std::vector<std::uint8_t> frame) {
  if (frame.size() > config_.mtu) {
    ++oversized_;
    return false;
  }
  ++sent_;
  sent_bytes_ += frame.size();
  // Blackout windows eat the frame before any RNG draw: the loss/reorder
  // stream is untouched, so trajectories outside the window are identical
  // to a run without the blackout.
  if (blackout_) {
    ++dropped_;
    ++blackout_drops_;
    return true;
  }
  if (!timed()) {
    if (ge_ ? ge_->drop(rng_) : rng_.next_bool(config_.loss_rate)) {
      ++dropped_;
      return true;  // sent, but the network ate it
    }
    // The arriving frame pushes its predecessor out of flight and into the
    // deliverable queue; the two may swap (adjacent reordering).
    if (in_flight_) {
      queue_.push_back(std::move(*in_flight_));
      in_flight_.reset();
    }
    in_flight_ = std::move(frame);
    if (!queue_.empty() && rng_.next_bool(config_.reorder_rate)) {
      std::swap(queue_.back(), *in_flight_);
    }
    return true;
  }

  // Virtual clock: pace the departure (lost frames consumed the sender's
  // egress capacity too — the network ate them downstream), then schedule
  // the arrival (delay + jitter).
  const std::uint64_t depart = shaper_.pace_departure(frame.size());
  if (ge_ ? ge_->drop(rng_) : rng_.next_bool(config_.loss_rate)) {
    ++dropped_;
    return true;
  }
  const bool reorder = config_.reorder_rate > 0.0 &&
                       rng_.next_bool(config_.reorder_rate);
  timed_queue_.insert(
      TimedFrame{shaper_.schedule_arrival(depart, rng_), next_seq_++,
                 std::move(frame)},
      reorder);
  return true;
}

std::optional<std::uint64_t> LossyChannel::next_arrival_at() const {
  return timed_queue_.next_arrival();
}

std::vector<std::uint8_t> LossyChannel::receive() {
  if (timed()) {
    auto frame = timed_queue_.pop_due(now());
    if (!frame) return {};
    delivered_bytes_ += frame->size();
    return std::move(*frame);
  }
  if (queue_.empty()) {
    // The empty observation is the channel's clock: the in-flight frame
    // completes its hop and is deliverable to the *next* receive().
    flush();
    return {};
  }
  auto frame = queue_.pop_front();
  delivered_bytes_ += frame.size();
  return frame;
}

Message LossyChannel::receive_message() {
  if (!pending()) {
    throw std::logic_error("LossyChannel::receive_message: queue empty");
  }
  if (const auto arrival = timed_queue_.next_arrival()) {
    advance_to(*arrival);  // wait out the path
  }
  auto frame = receive();
  if (frame.empty()) frame = receive();  // first call released the hop
  return decode_control_frame(frame);
}

void LossyChannel::flush() {
  if (in_flight_) {
    queue_.push_back(std::move(*in_flight_));
    in_flight_.reset();
  }
  // Teardown of a timed link: arrivals collapse to now, preserving order.
  timed_queue_.collapse_to(now());
}

}  // namespace icd::wire
