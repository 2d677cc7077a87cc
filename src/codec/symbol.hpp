#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// Symbol types exchanged by peers.
///
/// An *encoded symbol* is the XOR of a subset of source blocks; the subset is
/// derived deterministically from the symbol id, so only the id travels in
/// the packet header. A *recoded symbol* (Section 5.4.2) is the XOR of a set
/// of encoded symbols held by a partial sender; it "must enumerate the
/// encoded symbols from which it was produced", so its header carries the
/// constituent id list.
namespace icd::codec {

struct EncodedSymbol {
  /// Identifies the symbol within a session; the encoder derives the degree
  /// and neighbor set from (id, session seed). 64 bits, matching the
  /// paper's "degree sequence representations of these symbols were 64
  /// bits".
  std::uint64_t id = 0;
  /// XOR of the neighbor source blocks. May be empty in count-only
  /// simulations where payloads are irrelevant.
  std::vector<std::uint8_t> payload;

  bool operator==(const EncodedSymbol&) const = default;
};

struct RecodedSymbol {
  /// Ids of the encoded symbols blended into this symbol.
  std::vector<std::uint64_t> constituents;
  /// XOR of the constituent payloads; may be empty in count-only
  /// simulations.
  std::vector<std::uint8_t> payload;

  std::size_t degree() const { return constituents.size(); }

  bool operator==(const RecodedSymbol&) const = default;
};

/// Non-owning views of the symbol types, for the zero-copy fast path: the
/// sender serializes straight out of its decoder's storage, and the
/// receiver's transport decodes frames in place and hands out views whose
/// spans borrow the frame buffer (valid only until the next receive).
struct EncodedSymbolView {
  std::uint64_t id = 0;
  std::span<const std::uint8_t> payload;

  EncodedSymbolView() = default;
  EncodedSymbolView(std::uint64_t id, std::span<const std::uint8_t> payload)
      : id(id), payload(payload) {}
  explicit EncodedSymbolView(const EncodedSymbol& symbol)
      : id(symbol.id), payload(symbol.payload) {}
};

struct RecodedSymbolView {
  std::span<const std::uint64_t> constituents;
  std::span<const std::uint8_t> payload;

  RecodedSymbolView() = default;
  RecodedSymbolView(std::span<const std::uint64_t> constituents,
                    std::span<const std::uint8_t> payload)
      : constituents(constituents), payload(payload) {}
  explicit RecodedSymbolView(const RecodedSymbol& symbol)
      : constituents(symbol.constituents), payload(symbol.payload) {}

  std::size_t degree() const { return constituents.size(); }
};

/// Wide XOR kernel: dst[i] ^= src[i] for `n` bytes. This is the one XOR
/// inner loop shared by the encoder, recoder and peeling decoders (all
/// through xor_into), so it is explicitly widened rather than left to
/// auto-vectorization. The variant is chosen once, on
/// first use, from the CPU's features, never from build flags: every
/// build carries every variant its architecture has, and the default
/// build runs AVX2 on a machine that has it. All variants are
/// byte-for-byte equal (fastpath_test checks each against a byte loop).
void xor_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

/// Signature shared by the xor_bytes variants.
using XorKernel = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                           std::size_t n);

/// Portable variant, on every architecture: an unrolled 4x-uint64 block
/// (memcpy keeps it alignment- and aliasing-safe), then a word tail and a
/// byte tail.
void xor_bytes_portable(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n);

#if defined(__x86_64__)
/// AVX2 variant: 32 bytes per step, then the same word and byte tails.
/// Call it only where __builtin_cpu_supports("avx2") holds.
void xor_bytes_avx2(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n);
#endif

/// The variant xor_bytes runs on this CPU.
XorKernel xor_bytes_kernel();

/// XORs `src` into `dst`. Empty operands are treated as all-zero: XOR into
/// an empty destination copies, XOR of an empty source is a no-op. Sizes
/// must otherwise match.
void xor_into(std::vector<std::uint8_t>& dst,
              std::span<const std::uint8_t> src);
inline void xor_into(std::vector<std::uint8_t>& dst,
                     const std::vector<std::uint8_t>& src) {
  xor_into(dst, std::span<const std::uint8_t>(src));
}

}  // namespace icd::codec
