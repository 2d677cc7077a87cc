#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "art/art_summary.hpp"
#include "codec/symbol.hpp"
#include "filter/bloom.hpp"
#include "sketch/minwise.hpp"
#include "util/buffer.hpp"

/// Wire protocol for the control and data planes.
///
/// Every message that flows between collaborating peers — the calling-card
/// sketch, the fine-grained summaries, the symbols-desired request and the
/// symbols themselves — has a typed, versioned, length-prefixed wire form
/// here, so that implementations can interoperate and the simulator can
/// charge exact byte counts.
///
/// Frame layout:  magic(2) version(1) type(1) length(varint) payload.
namespace icd::wire {

inline constexpr std::uint16_t kMagic = 0x1CD0;
inline constexpr std::uint8_t kVersion = 1;

enum class MessageType : std::uint8_t {
  kHello = 1,          // session setup: code parameters + working set size
  kSketch = 2,         // min-wise sketch (Section 4)
  kBloomSummary = 3,   // Bloom filter of the working set (Section 5.2)
  kArtSummary = 4,     // approximate reconciliation tree summary (Section 5.3)
  kRequest = 5,        // symbols desired from this sender (Section 6.1)
  kEncodedSymbol = 6,  // one regular encoded symbol
  kRecodedSymbol = 7,  // one recoded symbol (Section 5.4.2)
  kFragment = 8,       // one MTU-sized slice of a larger frame
  kRequestUpdate = 9,  // flow control: symbols still wanted (0 = satisfied)
};

/// Session hello: advertises the code and the sender's working-set size
/// (the optional extra datum Section 4 mentions peers may exchange).
struct Hello {
  std::uint32_t block_count = 0;
  std::uint64_t session_seed = 0;
  std::uint64_t working_set_size = 0;

  bool operator==(const Hello&) const = default;
};

/// Symbols-desired request: "the receiver may specify the number of symbols
/// desired from each sender with appropriate allowances for decoding
/// overhead".
struct Request {
  std::uint64_t symbols_desired = 0;

  bool operator==(const Request&) const = default;
};

/// Flow-control update: the receiver re-issues its request as symbols
/// land, carrying the decremented count still wanted from this sender.
/// Zero means satisfied — the sender stops serving. Kept distinct from
/// Request because there a zero count means "the sender's full domain".
struct RequestUpdate {
  std::uint64_t symbols_remaining = 0;

  bool operator==(const RequestUpdate&) const = default;
};

struct SketchMessage {
  sketch::MinwiseSketch sketch;
};

struct BloomSummaryMessage {
  filter::BloomFilter filter;
};

struct ArtSummaryMessage {
  art::ArtSummary summary;
};

/// One slice of a frame too large for the link MTU (control summaries can
/// exceed it). `sequence` identifies the fragmented frame, `index`/`total`
/// place the slice; the transport layer reassembles and re-decodes.
struct Fragment {
  std::uint32_t sequence = 0;
  std::uint16_t index = 0;
  std::uint16_t total = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const Fragment&) const = default;
};

/// The control plane. Symbols (types 6 and 7) are not Messages: they are
/// encoded from and decoded into the non-owning views of codec/symbol.hpp.
using Message = std::variant<Hello, SketchMessage, BloomSummaryMessage,
                             ArtSummaryMessage, Request, Fragment,
                             RequestUpdate>;

/// One decoded frame: a control Message, or a symbol view whose spans
/// borrow the decoded bytes (and, for a recoded symbol, the constituent
/// scratch handed to decode_frame).
using DecodedFrame = std::variant<Message, codec::EncodedSymbolView,
                                  codec::RecodedSymbolView>;

/// The wire type tag of a message.
MessageType message_type(const Message& message);

/// Appends one self-describing frame for `message` to `out`. This is the
/// in-place API behind encode_frame: hand it a writer over a recycled
/// buffer (wire::BufferPool) and nothing on the frame path allocates.
/// Control payloads whose length prefix precedes bytes of unknown size are
/// staged in `payload_scratch` when given (cleared first; hand it a writer
/// over a second pooled buffer and control sends stop allocating too);
/// without one, a frame-local writer is used.
void encode_frame_into(util::ByteWriter& out, const Message& message);
void encode_frame_into(util::ByteWriter& out, const Message& message,
                       util::ByteWriter& payload_scratch);

/// The one Fragment layout: appends the frame for slice `index` of `total`
/// of frame `sequence`, written straight from `slice`, so the transport's
/// packetizer cuts a pooled frame into pooled fragments without copying
/// each slice first. encode_frame_into writes a Fragment message with it.
void encode_fragment_into(util::ByteWriter& out, std::uint32_t sequence,
                          std::uint16_t index, std::uint16_t total,
                          std::span<const std::uint8_t> slice);

/// Symbol frames, serialized straight from non-owning views, so a sender
/// puts a held payload on the wire without copying it first.
void encode_frame_into(util::ByteWriter& out,
                       const codec::EncodedSymbolView& symbol);
void encode_frame_into(util::ByteWriter& out,
                       const codec::RecodedSymbolView& symbol);

/// Serializes a control message or a symbol view into one self-describing
/// frame.
template <typename Item>
std::vector<std::uint8_t> encode_frame(const Item& item) {
  util::ByteWriter frame;
  encode_frame_into(frame, item);
  return frame.take();
}

/// Parses one frame, the header once for every type. A symbol frame comes
/// back as a view: its payload span borrows `frame` (valid only while the
/// frame bytes live), and recoded constituent ids are decoded into
/// `constituent_scratch`, which the view then borrows. Throws
/// std::invalid_argument on malformed input (bad magic, unknown
/// version/type, truncation, trailing bytes after the frame or inside a
/// summary blob).
DecodedFrame decode_frame(std::span<const std::uint8_t> frame,
                          std::vector<std::uint64_t>& constituent_scratch);

/// decode_frame for a frame that must hold a control Message (scripted
/// control exchanges, LossyChannel::receive_message): a symbol frame
/// throws std::invalid_argument like any other unexpected input.
Message decode_control_frame(std::span<const std::uint8_t> frame);

}  // namespace icd::wire
