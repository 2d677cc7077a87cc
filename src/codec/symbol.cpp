#include "codec/symbol.hpp"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace icd::codec {

namespace {

/// The word and byte tails every variant finishes with.
void xor_tail(std::uint8_t* dst, const std::uint8_t* src, std::size_t i,
              std::size_t n) {
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

XorKernel select_xor_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return xor_bytes_avx2;
#endif
  return xor_bytes_portable;
}

}  // namespace

void xor_bytes_portable(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t a0, a1, a2, a3, b0, b1, b2, b3;
    std::memcpy(&a0, dst + i, 8);
    std::memcpy(&a1, dst + i + 8, 8);
    std::memcpy(&a2, dst + i + 16, 8);
    std::memcpy(&a3, dst + i + 24, 8);
    std::memcpy(&b0, src + i, 8);
    std::memcpy(&b1, src + i + 8, 8);
    std::memcpy(&b2, src + i + 16, 8);
    std::memcpy(&b3, src + i + 24, 8);
    a0 ^= b0;
    a1 ^= b1;
    a2 ^= b2;
    a3 ^= b3;
    std::memcpy(dst + i, &a0, 8);
    std::memcpy(dst + i + 8, &a1, 8);
    std::memcpy(dst + i + 16, &a2, 8);
    std::memcpy(dst + i + 24, &a3, 8);
  }
  xor_tail(dst, src, i, n);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void xor_bytes_avx2(std::uint8_t* dst,
                                                    const std::uint8_t* src,
                                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  xor_tail(dst, src, i, n);
}
#endif

XorKernel xor_bytes_kernel() {
  static const XorKernel kernel = select_xor_kernel();
  return kernel;
}

void xor_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  xor_bytes_kernel()(dst, src, n);
}

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
