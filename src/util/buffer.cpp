#include "util/buffer.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace icd::util {

void ByteWriter::u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::u64s(std::span<const std::uint64_t> values) {
  if constexpr (std::endian::native == std::endian::little) {
    raw({reinterpret_cast<const std::uint8_t*>(values.data()),
         values.size_bytes()});
  } else {
    for (const std::uint64_t v : values) u64(v);
  }
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw std::out_of_range("ByteReader: read past end of buffer");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = bytes_[pos_];
  v |= static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

void ByteReader::u64s(std::span<std::uint64_t> out) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto bytes = view(out.size_bytes());
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  } else {
    need(out.size_bytes());
    for (std::uint64_t& v : out) v = u64();
  }
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1);
    const std::uint8_t byte = bytes_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e))) {
      throw std::out_of_range("ByteReader: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

std::vector<std::uint8_t> ByteReader::raw(std::size_t n) {
  need(n);
  std::vector<std::uint8_t> out(bytes_.begin() + pos_,
                                bytes_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  need(n);
  const auto out = bytes_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace icd::util
