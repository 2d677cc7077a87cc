#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "art/art_summary.hpp"
#include "art/reconciliation_tree.hpp"
#include "codec/decoder.hpp"
#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/recoder.hpp"
#include "filter/bloom.hpp"
#include "sketch/minwise.hpp"
#include "util/random.hpp"

/// A collaborating end-system (full-fidelity: real payloads, real decoding).
///
/// A Peer runs the paper's two peeling levels stacked:
///   * the recode decoder resolves incoming *recoded* symbols against the
///     encoded symbols already held, recovering fresh encoded symbols
///     (Section 5.4.2), and
///   * every encoded symbol — received directly or recovered above — feeds
///     the block decoder, which reconstructs the file by the substitution
///     rule (Section 5.4.1).
///
/// It also maintains the control-plane artifacts of Sections 4 and 5
/// incrementally: a min-wise sketch updated per arrival, and on-demand
/// Bloom-filter / ART summaries of the working set.
namespace icd::core {

/// Universe the min-wise permutations cover; symbol ids live below 2^63.
inline constexpr std::uint64_t kSymbolIdUniverse = std::uint64_t{1} << 63;

class Peer {
 public:
  Peer(std::string name, codec::CodeParameters params,
       codec::DegreeDistribution distribution);

  const std::string& name() const { return name_; }
  const codec::CodeParameters& parameters() const { return params_; }

  /// --- Receiving ---------------------------------------------------------

  /// Feeds a regular encoded symbol; returns the number of new encoded
  /// symbols it yielded (>= 1 when novel: the symbol itself plus any
  /// buffered recoded symbols it unblocked).
  std::size_t receive_encoded(const codec::EncodedSymbol& symbol);

  /// Feeds a recoded symbol; returns the number of new encoded symbols
  /// recovered (0 if it was redundant or had to be buffered).
  std::size_t receive_recoded(const codec::RecodedSymbol& symbol);

  /// View variants for symbols decoded in place from a transport frame:
  /// the payload is copied exactly once, into the recode decoder (the
  /// single-copy rule of the zero-copy receive path; see DESIGN.md).
  std::size_t receive_encoded(const codec::EncodedSymbolView& symbol);
  std::size_t receive_recoded(const codec::RecodedSymbolView& symbol);

  /// --- State -------------------------------------------------------------

  /// Distinct encoded symbols held (received or recovered).
  std::size_t symbol_count() const { return symbol_ids().size(); }
  /// Held symbol ids in acquisition order: the recode decoder's log, which
  /// survives compact_on_complete.
  const std::vector<std::uint64_t>& symbol_ids() const {
    return recode_decoder_.acquisition_log();
  }
  bool has_symbol(std::uint64_t id) const {
    return recode_decoder_.has_symbol(id);
  }

  /// Payload of a held symbol; throws if absent.
  const std::vector<std::uint8_t>& symbol_payload(std::uint64_t id) const {
    return recode_decoder_.payload(id);
  }

  /// Dense slot of a held symbol, fixed when it was acquired: slot k holds
  /// symbol_ids()[k]. Throws std::logic_error if `id` is not held. A
  /// sender on the ART path maps its difference through this once, so a
  /// domain that is not a subset of the working set fails at the
  /// handshake; the Bloom path reads slots by position and never calls it.
  std::uint32_t symbol_slot(std::uint64_t id) const;

  /// Payload of the symbol in `slot` (< symbol_count()): an array read, no
  /// hashing. Payloads live in one slab that grows only in receive calls.
  const std::vector<std::uint8_t>& slot_payload(std::uint32_t slot) const {
    return recode_decoder_.slot_payload(slot);
  }

  /// Source blocks recovered so far / needed.
  std::size_t blocks_recovered() const {
    return block_decoder_.recovered_count();
  }
  /// True once the whole file is decodable.
  bool has_content() const { return block_decoder_.complete(); }

  /// The reconstructed content (strips block padding); requires
  /// has_content().
  std::vector<std::uint8_t> content(std::size_t content_size) const;

  /// --- Control plane (Sections 4 and 5) -----------------------------------

  /// The incrementally maintained min-wise sketch of the working set.
  const sketch::MinwiseSketch& sketch() const { return sketch_; }

  /// Bloom filter over the held symbol ids, at
  /// filter::kSummaryBitsPerElement.
  filter::BloomFilter bloom_summary() const;

  /// Approximate reconciliation tree over the held symbol ids, and its
  /// transmissible summary (art::kSummaryLeafBitsPerElement +
  /// art::kSummaryInternalBitsPerElement).
  art::ReconciliationTree reconciliation_tree() const;
  art::ArtSummary art_summary() const;

  /// --- Sending -----------------------------------------------------------

  /// Re-encoding (full content only): a fresh symbol of the shared code
  /// from this peer's own id stream. Once a peer "has decoded the entire
  /// content of the file ... the end-system can generate new encoded
  /// content at will."
  codec::EncodedSymbol encode_fresh();

  /// Recoding (Section 5.4.2): XOR of `degree` distinct symbols drawn
  /// uniformly from a domain (degree clamped to [1, domain size]),
  /// constituents sorted by id. recode_into samples the whole working set
  /// (index k is slot k); recode_slots_into samples a domain given as
  /// slots, e.g. the ids that missed the receiver's Bloom filter, so each
  /// symbol costs O(degree) array reads whatever the domain size. Both
  /// throw std::invalid_argument on an empty domain. `out`'s vectors are
  /// reused (cleared, capacity kept), so a warm sender allocates nothing
  /// per recoded symbol. A Peer keeps no mutable send state, so sender
  /// halves on different threads may recode from one const Peer at once.
  void recode_into(codec::RecodedSymbol& out, std::size_t degree,
                   util::Xoshiro256& rng) const;
  void recode_slots_into(codec::RecodedSymbol& out,
                         std::span<const std::uint32_t> slots,
                         std::size_t degree, util::Xoshiro256& rng) const;

  /// --- Scale audit --------------------------------------------------------

  /// Heap bytes this peer pins: both decoders (the recode decoder's
  /// includes the symbol id log), the sketch, and any cached decoded
  /// blocks. The per-peer half of MemoryAudit.
  std::size_t memory_bytes() const {
    std::size_t bytes = recode_decoder_.memory_bytes() +
                        block_decoder_.memory_bytes() +
                        sketch_.memory_bytes();
    if (decoded_blocks_) {
      for (const auto& block : *decoded_blocks_) bytes += block.capacity();
      bytes += decoded_blocks_->capacity() * sizeof(std::vector<std::uint8_t>);
    }
    return bytes;
  }

  /// Combined solver op counters of both peeling levels (recode + block),
  /// the decoder_stats surface of SessionResult.
  codec::DecoderStats decoder_stats() const {
    return recode_decoder_.stats() + block_decoder_.stats();
  }

  /// Releases solver-only storage once this peer has the full content and
  /// its last download link has been torn down (no further symbols can
  /// ever arrive): buffered equations and waiting indexes in both
  /// decoders. Everything the serving path reads — held payloads, the
  /// sketch, symbol ids, recovered blocks — survives untouched, so a
  /// compacted peer serves byte-identically. Idempotent; engines call it
  /// from teardown, never at the completion stamp (in-flight symbols
  /// delivered during teardown could still peel buffered equations and
  /// perturb what admission observes).
  void compact_on_complete() {
    recode_decoder_.release_solver_state();
    block_decoder_.release_solver_state();
  }

 private:
  /// Pulls newly acquired ids out of the recode decoder's log, updating the
  /// sketch and feeding the block decoder. Returns how many were new.
  std::size_t absorb_acquisitions();

  /// Shared recode core: XOR-blend `degree` distinct entries of a domain of
  /// `domain_size` entries into `out`, entry i living in slot slot_of(i).
  template <typename SlotOf>
  void blend_recode(codec::RecodedSymbol& out, std::size_t domain_size,
                    SlotOf slot_of, std::size_t degree,
                    util::Xoshiro256& rng) const;

  std::string name_;
  codec::CodeParameters params_;
  codec::DegreeDistribution distribution_;
  codec::RecodeDecoder recode_decoder_;
  codec::Decoder block_decoder_;
  sketch::MinwiseSketch sketch_;
  /// Acquisitions already absorbed: the length of symbol_ids() the sketch
  /// and block decoder have seen.
  std::size_t log_offset_ = 0;
  std::uint64_t next_fresh_id_;
  std::optional<std::vector<std::vector<std::uint8_t>>> decoded_blocks_;
};

}  // namespace icd::core
