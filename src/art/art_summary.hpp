#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "art/reconciliation_tree.hpp"
#include "filter/bloom.hpp"

/// The transmissible half of an approximate reconciliation tree.
///
/// "To avoid some bulkiness in sending an explicit representation of the
/// tree, we instead summarize the hashes of the tree in a Bloom filter ...
/// we separate the leaf hashes from the internal hashes and use separate
/// Bloom filters, thus allowing the relative accuracies to be controlled."
namespace icd::art {

/// The protocol's ART summary settings, fixed for the whole evaluation
/// (Table 4's best): 4 + 4 bits per element on the leaf and internal
/// filters, searched at correction level 5.
inline constexpr double kSummaryLeafBitsPerElement = 4.0;
inline constexpr double kSummaryInternalBitsPerElement = 4.0;
inline constexpr int kSummaryCorrection = 5;

class ArtSummary {
 public:
  /// Builds the summary of `tree`, spending `leaf_bits_per_element` and
  /// `internal_bits_per_element` bits per *set element* on the leaf and
  /// internal filters respectively (the paper's Figure 4 budget is their
  /// sum). A zero budget disables that filter: every membership probe on a
  /// disabled filter reports "present" (an always-saturated filter), which
  /// reproduces the endpoints of Figure 4(a).
  static ArtSummary build(const ReconciliationTree& tree,
                          double leaf_bits_per_element,
                          double internal_bits_per_element,
                          std::uint64_t seed = kSummarySeed);

  /// True if a leaf with this value hash may exist in the summarized set.
  bool leaf_may_contain(std::uint64_t value) const;
  /// True if an internal node with this XOR value may exist.
  bool internal_may_contain(std::uint64_t value) const;

  std::size_t element_count() const { return element_count_; }

  /// Heap bytes the two filters pin (scale audit).
  std::size_t memory_bytes() const {
    return (leaf_filter_ ? leaf_filter_->memory_bytes() : 0) +
           (internal_filter_ ? internal_filter_->memory_bytes() : 0);
  }

  /// Total size of both filters in bits / in serialized bytes.
  /// serialize_into appends the same bytes as serialize() to an existing
  /// writer (e.g. over a pooled frame buffer) without scratch vectors;
  /// serialized_size is the exact byte count it will append.
  std::size_t total_bits() const;
  std::vector<std::uint8_t> serialize() const;
  std::size_t serialized_size() const;
  void serialize_into(util::ByteWriter& out) const;
  /// Rejects truncation and leftover bytes, in the summary or in either
  /// filter blob, like BloomFilter::deserialize.
  static ArtSummary deserialize(std::span<const std::uint8_t> bytes);

  static constexpr std::uint64_t kSummarySeed = 0x5a11ad5b100f11ULL;

 private:
  ArtSummary() = default;

  std::size_t element_count_ = 0;
  std::optional<filter::BloomFilter> leaf_filter_;
  std::optional<filter::BloomFilter> internal_filter_;
};

/// Searches the locally built `local` tree against a peer's `remote`
/// summary and returns the keys believed to be in the local set but not the
/// peer's (S_local - S_peer), i.e. the symbols worth sending.
///
/// `correction` is the paper's correction level: "the number of consecutive
/// matches allowed without pruning the search. A correction level of 0
/// stops the search at the first match found while a correction level of 1
/// allows one match at an internal node but stops if a child of that node
/// also matches."
std::vector<std::uint64_t> find_local_differences(
    const ReconciliationTree& local, const ArtSummary& remote, int correction);

}  // namespace icd::art
