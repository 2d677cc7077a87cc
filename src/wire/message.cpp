#include "wire/message.hpp"

#include <span>
#include <stdexcept>

#include "util/buffer.hpp"

namespace icd::wire {

namespace {

void write_payload(util::ByteWriter& writer, const Hello& hello) {
  writer.u32(hello.block_count);
  writer.u64(hello.session_seed);
  writer.varint(hello.working_set_size);
}

Hello read_hello(util::ByteReader& reader) {
  Hello hello;
  hello.block_count = reader.u32();
  hello.session_seed = reader.u64();
  hello.working_set_size = reader.varint();
  return hello;
}

void write_payload(util::ByteWriter& writer, const Request& request) {
  writer.varint(request.symbols_desired);
}

Request read_request(util::ByteReader& reader) {
  return Request{reader.varint()};
}

void write_payload(util::ByteWriter& writer, const RequestUpdate& update) {
  writer.varint(update.symbols_remaining);
}

RequestUpdate read_request_update(util::ByteReader& reader) {
  return RequestUpdate{reader.varint()};
}

void write_payload(util::ByteWriter& writer, const Fragment& fragment) {
  writer.u32(fragment.sequence);
  writer.u16(fragment.index);
  writer.u16(fragment.total);
  writer.varint(fragment.data.size());
  writer.raw(fragment.data);
}

Fragment read_fragment(util::ByteReader& reader) {
  Fragment fragment;
  fragment.sequence = reader.u32();
  fragment.index = reader.u16();
  fragment.total = reader.u16();
  fragment.data = reader.raw(reader.varint());
  return fragment;
}

/// A size-prefixed summary blob, borrowed from the frame: the summary
/// decoders read it in place.
std::span<const std::uint8_t> read_blob(util::ByteReader& reader) {
  return reader.view(reader.varint());
}

}  // namespace

MessageType message_type(const Message& message) {
  struct Visitor {
    MessageType operator()(const Hello&) { return MessageType::kHello; }
    MessageType operator()(const SketchMessage&) {
      return MessageType::kSketch;
    }
    MessageType operator()(const BloomSummaryMessage&) {
      return MessageType::kBloomSummary;
    }
    MessageType operator()(const ArtSummaryMessage&) {
      return MessageType::kArtSummary;
    }
    MessageType operator()(const Request&) { return MessageType::kRequest; }
    MessageType operator()(const Fragment&) { return MessageType::kFragment; }
    MessageType operator()(const RequestUpdate&) {
      return MessageType::kRequestUpdate;
    }
  };
  return std::visit(Visitor{}, message);
}

namespace {

void write_frame_header(util::ByteWriter& out, MessageType type,
                        std::size_t payload_size) {
  out.u16(kMagic);
  out.u8(kVersion);
  out.u8(static_cast<std::uint8_t>(type));
  out.varint(payload_size);
}

}  // namespace

void encode_frame_into(util::ByteWriter& out, const Message& message) {
  util::ByteWriter payload;
  encode_frame_into(out, message, payload);
}

void encode_frame_into(util::ByteWriter& out, const Message& message,
                       util::ByteWriter& payload_scratch) {
  // A control payload is staged in the scratch writer because the length
  // prefix precedes bytes whose size only serialization reveals. The
  // summaries serialize_into the scratch directly (size-prefixed like any
  // blob), so nothing here allocates beyond the two writers' storage.
  util::ByteWriter payload(payload_scratch.take());
  struct Visitor {
    util::ByteWriter& writer;
    void operator()(const Hello& m) { write_payload(writer, m); }
    void operator()(const SketchMessage& m) {
      writer.varint(m.sketch.serialized_size());
      m.sketch.serialize_into(writer);
    }
    void operator()(const BloomSummaryMessage& m) {
      writer.varint(m.filter.serialized_size());
      m.filter.serialize_into(writer);
    }
    void operator()(const ArtSummaryMessage& m) {
      writer.varint(m.summary.serialized_size());
      m.summary.serialize_into(writer);
    }
    void operator()(const Request& m) { write_payload(writer, m); }
    void operator()(const Fragment& m) { write_payload(writer, m); }
    void operator()(const RequestUpdate& m) { write_payload(writer, m); }
  };
  std::visit(Visitor{payload}, message);

  write_frame_header(out, message_type(message), payload.size());
  out.raw(payload.bytes());
  payload_scratch = util::ByteWriter(payload.take());
}

void encode_frame_into(util::ByteWriter& out,
                       const codec::EncodedSymbolView& symbol) {
  const std::size_t payload_size =
      8 + util::varint_size(symbol.payload.size()) + symbol.payload.size();
  write_frame_header(out, MessageType::kEncodedSymbol, payload_size);
  out.u64(symbol.id);
  out.varint(symbol.payload.size());
  out.raw(symbol.payload);
}

void encode_frame_into(util::ByteWriter& out,
                       const codec::RecodedSymbolView& symbol) {
  const std::size_t payload_size =
      util::varint_size(symbol.constituents.size()) +
      8 * symbol.constituents.size() +
      util::varint_size(symbol.payload.size()) + symbol.payload.size();
  write_frame_header(out, MessageType::kRecodedSymbol, payload_size);
  out.varint(symbol.constituents.size());
  out.u64s(symbol.constituents);
  out.varint(symbol.payload.size());
  out.raw(symbol.payload);
}

DecodedFrame decode_frame(std::span<const std::uint8_t> frame,
                          std::vector<std::uint64_t>& constituent_scratch) {
  try {
    util::ByteReader reader(frame);
    if (reader.u16() != kMagic) {
      throw std::invalid_argument("wire: bad magic");
    }
    if (reader.u8() != kVersion) {
      throw std::invalid_argument("wire: unsupported version");
    }
    const auto type = static_cast<MessageType>(reader.u8());
    const std::size_t length = reader.varint();
    util::ByteReader payload(reader.view(length));
    if (!reader.done()) {
      throw std::invalid_argument("wire: trailing bytes after frame");
    }

    DecodedFrame decoded = [&]() -> DecodedFrame {
      switch (type) {
        case MessageType::kHello:
          return Message{read_hello(payload)};
        case MessageType::kSketch:
          return Message{SketchMessage{
              sketch::MinwiseSketch::deserialize(read_blob(payload))}};
        case MessageType::kBloomSummary:
          return Message{BloomSummaryMessage{
              filter::BloomFilter::deserialize(read_blob(payload))}};
        case MessageType::kArtSummary:
          return Message{ArtSummaryMessage{
              art::ArtSummary::deserialize(read_blob(payload))}};
        case MessageType::kRequest:
          return Message{read_request(payload)};
        case MessageType::kEncodedSymbol: {
          const std::uint64_t id = payload.u64();
          return codec::EncodedSymbolView(id, payload.view(payload.varint()));
        }
        case MessageType::kRecodedSymbol: {
          const std::size_t degree = payload.varint();
          // Bound the resize by what the payload can actually hold (8
          // bytes per constituent): a corrupt degree must fail like any
          // truncation, not attempt a giant allocation first.
          if (degree > payload.remaining() / 8) {
            throw std::invalid_argument("wire: recoded degree exceeds payload");
          }
          constituent_scratch.resize(degree);
          payload.u64s(constituent_scratch);
          return codec::RecodedSymbolView(constituent_scratch,
                                          payload.view(payload.varint()));
        }
        case MessageType::kFragment:
          return Message{read_fragment(payload)};
        case MessageType::kRequestUpdate:
          return Message{read_request_update(payload)};
      }
      throw std::invalid_argument("wire: unknown message type");
    }();
    if (!payload.done()) {
      throw std::invalid_argument("wire: trailing bytes in payload");
    }
    return decoded;
  } catch (const std::out_of_range&) {
    // Buffer underruns from any nested deserializer mean one thing at this
    // layer: a truncated or corrupt frame.
    throw std::invalid_argument("wire: truncated frame");
  }
}

Message decode_control_frame(std::span<const std::uint8_t> frame) {
  std::vector<std::uint64_t> constituents;
  auto decoded = decode_frame(frame, constituents);
  auto* message = std::get_if<Message>(&decoded);
  if (message == nullptr) {
    throw std::invalid_argument("wire: symbol frame where control expected");
  }
  return std::move(*message);
}

}  // namespace icd::wire
