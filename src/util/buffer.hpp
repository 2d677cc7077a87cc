#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// Endian-safe byte-buffer serialization.
///
/// Every control message in the library (sketches, Bloom filters, ART
/// summaries, symbol headers) serializes through these so that the exact
/// wire size can be measured against the paper's 1 KB-packet budgets.
/// Integers are little-endian on the wire; u64 arrays (sketch minima,
/// recoded constituent ids) cross as one block copy on little-endian
/// hosts, with the same bytes as a u64() per element.
namespace icd::util {

/// Encoded size of a LEB128 varint (1-10 bytes).
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `storage` as the output buffer, clearing its contents but
  /// keeping its capacity — the zero-allocation path: hand a recycled
  /// buffer (wire::BufferPool) to the writer and take() it back out.
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : bytes_(std::move(storage)) {
    bytes_.clear();
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// The same bytes as u64() on each element, in order.
  void u64s(std::span<const std::uint64_t> values);
  /// LEB128 variable-length unsigned integer (1-10 bytes).
  void varint(std::uint64_t v);
  void raw(std::span<const std::uint8_t> data);

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader; all methods throw std::out_of_range on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Fills `out` with the next out.size() u64() values, after one bounds
  /// check for all of them.
  void u64s(std::span<std::uint64_t> out);
  std::uint64_t varint();
  std::vector<std::uint8_t> raw(std::size_t n);
  /// Bounds-checked non-owning view of the next `n` bytes; the span borrows
  /// the reader's underlying buffer and is invalidated with it.
  std::span<const std::uint8_t> view(std::size_t n);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace icd::util
