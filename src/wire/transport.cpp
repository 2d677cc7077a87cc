#include "wire/transport.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"

namespace icd::wire {

bool Transport::send(const Message& message) {
  util::ByteWriter writer(acquire_buffer());
  util::ByteWriter payload_scratch(acquire_buffer());
  encode_frame_into(writer, message, payload_scratch);
  release_buffer(payload_scratch.take());
  return send_whole(writer.take(), /*control=*/true);
}

template <typename View>
bool Transport::send_symbol(const View& symbol) {
  util::ByteWriter writer(acquire_buffer());
  encode_frame_into(writer, symbol);
  return send_whole(writer.take(), /*control=*/false);
}

bool Transport::send(const codec::EncodedSymbolView& symbol) {
  return send_symbol(symbol);
}

bool Transport::send(const codec::RecodedSymbolView& symbol) {
  return send_symbol(symbol);
}

bool Transport::send_whole(std::vector<std::uint8_t> frame, bool control) {
  if (frame.size() > mtu_) return send_oversized(std::move(frame), control);
  if (!send_frame(std::move(frame), control)) return false;
  ++stats_.messages_sent;
  return true;
}

bool Transport::send_oversized(std::vector<std::uint8_t> frame, bool control) {
  // Packetize: slice the oversized frame into Fragment frames, each of
  // which fits the MTU with room for its own header.
  if (mtu_ <= kFragmentOverhead) {
    ++stats_.frames_refused;
    release_buffer(std::move(frame));
    return false;
  }
  const std::size_t chunk = mtu_ - kFragmentOverhead;
  const std::size_t count = (frame.size() + chunk - 1) / chunk;
  if (count > std::numeric_limits<std::uint16_t>::max()) {
    ++stats_.frames_refused;
    release_buffer(std::move(frame));
    return false;
  }
  const std::uint32_t sequence = next_sequence_++;
  const std::span<const std::uint8_t> bytes(frame);
  for (std::size_t i = 0; i < count; ++i) {
    // Each fragment's header and slice go straight into a pooled buffer.
    const std::size_t begin = i * chunk;
    const auto slice =
        bytes.subspan(begin, std::min(chunk, bytes.size() - begin));
    util::ByteWriter writer(acquire_buffer());
    encode_fragment_into(writer, sequence, static_cast<std::uint16_t>(i),
                         static_cast<std::uint16_t>(count), slice);
    if (!send_frame(writer.take(), control)) {
      release_buffer(std::move(frame));
      return false;
    }
  }
  release_buffer(std::move(frame));
  ++stats_.messages_sent;
  return true;
}

bool Transport::send_frame(std::vector<std::uint8_t> frame, bool control) {
  const std::size_t size = frame.size();
  if (observer_) observer_(frame, control);
  if (!send_datagram(std::move(frame))) {
    ++stats_.frames_refused;
    return false;
  }
  ++stats_.frames_sent;
  stats_.bytes_sent += size;
  if (control) {
    ++stats_.control_frames_sent;
    stats_.control_bytes_sent += size;
  } else {
    ++stats_.data_frames_sent;
    stats_.data_bytes_sent += size;
  }
  return true;
}

bool Transport::take_datagram() {
  // Views handed out by the previous receive die here: a datagram goes back
  // to the pool for the sender to recycle, and a reassembled frame, larger
  // than any datagram, is freed so pooled buffers stay datagram-sized.
  auto finished = std::exchange(rx_frame_, {});
  if (rx_frame_pooled_) release_buffer(std::move(finished));
  rx_frame_pooled_ = false;
  auto datagram = next_datagram();
  if (!datagram) return false;
  rx_frame_ = std::move(*datagram);
  rx_frame_pooled_ = true;
  ++stats_.frames_received;
  return true;
}

std::optional<DecodedFrame> Transport::receive_frame() {
  while (take_datagram()) {
    if (auto frame = decode_datagram()) {
      ++stats_.messages_received;
      return frame;
    }
  }
  return std::nullopt;
}

std::optional<DecodedFrame> Transport::decode_datagram() {
  // One decoder for every frame. A Fragment that completes its frame swaps
  // the reassembled bytes into rx_frame_, which then decodes once more, so
  // an oversized symbol also arrives as a view. Fragments do not nest.
  for (bool reassembled = false;; reassembled = true) {
    std::optional<DecodedFrame> frame;
    try {
      frame = decode_frame(rx_frame_, rx_constituents_);
    } catch (const std::invalid_argument&) {
      ++stats_.malformed_frames;
      return std::nullopt;
    }
    auto* message = std::get_if<Message>(&*frame);
    auto* fragment = message ? std::get_if<Fragment>(message) : nullptr;
    if (fragment == nullptr) return frame;
    if (reassembled) {
      ++stats_.malformed_frames;
      return std::nullopt;
    }
    if (!absorb_fragment(std::move(*fragment))) return std::nullopt;
  }
}

bool Transport::absorb_fragment(Fragment fragment) {
  if (fragment.total == 0 || fragment.index >= fragment.total) {
    ++stats_.malformed_frames;
    return false;
  }
  // Bound reassembly memory before inserting a new sequence: evict the
  // oldest partial (its siblings were lost or hopelessly delayed; the
  // endpoints' retry path re-sends). Evicting first guarantees the entry
  // we are about to use is never the one destroyed.
  if (partials_.size() >= kMaxPartialReassemblies &&
      !partials_.contains(fragment.sequence)) {
    auto oldest = partials_.begin();
    stats_.stale_fragments += oldest->second.slices.size();
    partials_.erase(oldest);
  }
  auto [it, inserted] = partials_.try_emplace(fragment.sequence);
  Partial& partial = it->second;
  if (inserted) {
    partial.total = fragment.total;
  } else if (partial.total != fragment.total) {
    ++stats_.malformed_frames;
    return false;
  }
  if (partial.slices.contains(fragment.index)) return false;  // duplicate
  if (fragment.data.empty()) {
    // An empty slice can never complete; treat as malformed.
    ++stats_.malformed_frames;
    partials_.erase(it);
    return false;
  }
  partial.slices.emplace(fragment.index, std::move(fragment.data));
  if (partial.slices.size() < partial.total) return false;

  std::size_t size = 0;
  for (const auto& [index, slice] : partial.slices) size += slice.size();
  std::vector<std::uint8_t> whole;
  whole.reserve(size);
  for (const auto& [index, slice] : partial.slices) {
    whole.insert(whole.end(), slice.begin(), slice.end());
  }
  partials_.erase(it);
  release_buffer(std::exchange(rx_frame_, std::move(whole)));
  rx_frame_pooled_ = false;
  return true;
}

Pipe::Pipe(std::size_t mtu)
    : pool_(std::make_shared<BufferPool>()),
      a_(mtu, pool_, a_to_b_, b_to_a_), b_(mtu, pool_, b_to_a_, a_to_b_) {}

bool Pipe::End::send_datagram(std::vector<std::uint8_t> frame) {
  tx_.push_back(std::move(frame));
  return true;
}

std::optional<std::vector<std::uint8_t>> Pipe::End::next_datagram() {
  if (rx_.empty()) return std::nullopt;
  return rx_.pop_front();
}

ChannelTransport::ChannelTransport(LossyChannel& tx, LossyChannel& rx,
                                   std::shared_ptr<BufferPool> pool)
    : Transport(tx.config().mtu, std::move(pool)), tx_(tx), rx_(rx) {}

bool ChannelTransport::send_datagram(std::vector<std::uint8_t> frame) {
  return tx_.send(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> ChannelTransport::next_datagram() {
  // An empty receive is the channel's clock: the frame in flight becomes
  // deliverable on the *next* drain (one-hop minimum queue residency).
  auto frame = rx_.receive();
  if (frame.empty()) return std::nullopt;
  return frame;
}

namespace {

ChannelConfig decorrelated(ChannelConfig config) {
  config.seed = util::mix64(config.seed.value_or(kDefaultChannelSeed) ^
                            0x9e3779b97f4a7c15ULL);
  return config;
}

}  // namespace

ChannelLink::ChannelLink(ChannelConfig both_ways,
                         std::shared_ptr<BufferPool> pool)
    : ChannelLink(both_ways, decorrelated(both_ways), std::move(pool)) {}

ChannelLink::ChannelLink(ChannelConfig a_to_b, ChannelConfig b_to_a,
                         std::shared_ptr<BufferPool> pool)
    : a_to_b_(a_to_b), b_to_a_(b_to_a), owns_pool_(pool == nullptr),
      pool_(pool ? std::move(pool) : std::make_shared<BufferPool>()),
      a_(a_to_b_, b_to_a_, pool_), b_(b_to_a_, a_to_b_, pool_) {}

}  // namespace icd::wire
