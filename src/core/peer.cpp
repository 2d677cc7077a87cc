#include "core/peer.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "codec/block_source.hpp"
#include "util/hash.hpp"

namespace icd::core {

Peer::Peer(std::string name, codec::CodeParameters params,
           codec::DegreeDistribution distribution)
    : name_(std::move(name)), params_(params),
      distribution_(std::move(distribution)),
      block_decoder_(params, distribution_),
      sketch_(kSymbolIdUniverse),
      next_fresh_id_(util::hash64(util::fnv1a(std::as_bytes(std::span(
                         name_.data(), name_.size()))),
                     params.session_seed) |
                     (std::uint64_t{1} << 62)) {}

std::size_t Peer::absorb_acquisitions() {
  const auto& log = recode_decoder_.acquisition_log();
  std::size_t fresh = 0;
  while (log_offset_ < log.size()) {
    // A symbol's slot is its position in the log, i.e. in symbol_ids().
    const auto slot = static_cast<std::uint32_t>(log_offset_);
    const std::uint64_t id = log[log_offset_++];
    sketch_.update(id % kSymbolIdUniverse);
    // Span feed: the block decoder copies the payload into its own solver;
    // no intermediate EncodedSymbol is materialized.
    block_decoder_.add_symbol(id, recode_decoder_.slot_payload(slot));
    ++fresh;
  }
  return fresh;
}

std::size_t Peer::receive_encoded(const codec::EncodedSymbol& symbol) {
  recode_decoder_.add_held_symbol(symbol);
  return absorb_acquisitions();
}

std::size_t Peer::receive_recoded(const codec::RecodedSymbol& symbol) {
  recode_decoder_.add_recoded(symbol);
  return absorb_acquisitions();
}

std::size_t Peer::receive_encoded(const codec::EncodedSymbolView& symbol) {
  recode_decoder_.add_held_symbol(symbol);
  return absorb_acquisitions();
}

std::size_t Peer::receive_recoded(const codec::RecodedSymbolView& symbol) {
  recode_decoder_.add_recoded(symbol);
  return absorb_acquisitions();
}

std::vector<std::uint8_t> Peer::content(std::size_t content_size) const {
  return codec::BlockSource::restore(block_decoder_.blocks(), content_size);
}

filter::BloomFilter Peer::bloom_summary() const {
  auto filter = filter::BloomFilter::with_bits_per_element(
      std::max<std::size_t>(1, symbol_count()),
      filter::kSummaryBitsPerElement);
  filter.insert_all(symbol_ids());
  return filter;
}

art::ReconciliationTree Peer::reconciliation_tree() const {
  return art::ReconciliationTree(symbol_ids());
}

art::ArtSummary Peer::art_summary() const {
  return art::ArtSummary::build(reconciliation_tree(),
                                art::kSummaryLeafBitsPerElement,
                                art::kSummaryInternalBitsPerElement);
}

codec::EncodedSymbol Peer::encode_fresh() {
  if (!has_content()) {
    throw std::logic_error("Peer::encode_fresh: content not yet decoded");
  }
  if (!decoded_blocks_) decoded_blocks_ = block_decoder_.blocks();
  const std::uint64_t id = next_fresh_id_++;
  codec::EncodedSymbol symbol;
  symbol.id = id;
  for (const std::uint32_t b :
       codec::symbol_neighbors(params_, distribution_, id)) {
    codec::xor_into(symbol.payload, (*decoded_blocks_)[b]);
  }
  return symbol;
}

std::uint32_t Peer::symbol_slot(std::uint64_t id) const {
  const auto slot = recode_decoder_.slot(id);
  if (!slot) throw std::logic_error("Peer::symbol_slot: id not held");
  return *slot;
}

template <typename SlotOf>
void Peer::blend_recode(codec::RecodedSymbol& out, std::size_t domain_size,
                        SlotOf slot_of, std::size_t degree,
                        util::Xoshiro256& rng) const {
  if (domain_size == 0) {
    throw std::invalid_argument("Peer: recode over an empty domain");
  }
  const std::size_t d = std::min(std::max<std::size_t>(degree, 1), domain_size);
  // Reserve to the degree cap (not just d): capacities then reach steady
  // state on the first call instead of whenever the degree distribution
  // happens to draw its maximum — which keeps the send path's
  // zero-allocation guarantee deterministic.
  const std::size_t hint = std::max(
      d, std::min(domain_size, codec::kDefaultRecodeDegreeLimit));
  out.constituents.reserve(hint);
  // Indices are sampled straight into the constituent list, then mapped to
  // ids in place: no scratch, so a const Peer stays shareable.
  util::sample_without_replacement_into(out.constituents, domain_size, d,
                                        rng);
  out.payload.clear();
  for (std::uint64_t& pick : out.constituents) {
    const std::uint32_t slot = slot_of(static_cast<std::size_t>(pick));
    pick = symbol_ids()[slot];
    codec::xor_into(out.payload, recode_decoder_.slot_payload(slot));
  }
  std::sort(out.constituents.begin(), out.constituents.end());
}

void Peer::recode_into(codec::RecodedSymbol& out, std::size_t degree,
                       util::Xoshiro256& rng) const {
  // The whole working set is the domain, and index k of it is slot k.
  blend_recode(
      out, symbol_count(),
      [](std::size_t k) { return static_cast<std::uint32_t>(k); }, degree,
      rng);
}

void Peer::recode_slots_into(codec::RecodedSymbol& out,
                             std::span<const std::uint32_t> slots,
                             std::size_t degree, util::Xoshiro256& rng) const {
  blend_recode(
      out, slots.size(), [slots](std::size_t i) { return slots[i]; }, degree,
      rng);
}

}  // namespace icd::core
