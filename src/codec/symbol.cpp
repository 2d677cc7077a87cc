#include "codec/symbol.hpp"

#include <stdexcept>

namespace icd::codec {

void xor_into(std::vector<std::uint8_t>& dst,
              std::span<const std::uint8_t> src) {
  if (src.empty()) return;
  if (dst.empty()) {
    dst.assign(src.begin(), src.end());
    return;
  }
  if (dst.size() != src.size()) {
    throw std::invalid_argument("xor_into: payload size mismatch");
  }
  xor_bytes(dst.data(), src.data(), dst.size());
}

}  // namespace icd::codec
