#include "art/art_summary.hpp"

#include <cmath>
#include <stdexcept>

#include "util/buffer.hpp"

namespace icd::art {

namespace {

std::optional<filter::BloomFilter> make_filter(
    const std::vector<std::uint64_t>& values, double bits_per_element,
    std::size_t element_count, std::uint64_t seed) {
  if (bits_per_element <= 0 || element_count == 0) return std::nullopt;
  auto filter = filter::BloomFilter::with_bits_per_element(
      element_count, bits_per_element, seed);
  filter.insert_all(values);
  return filter;
}

}  // namespace

ArtSummary ArtSummary::build(const ReconciliationTree& tree,
                             double leaf_bits_per_element,
                             double internal_bits_per_element,
                             std::uint64_t seed) {
  ArtSummary summary;
  summary.element_count_ = tree.element_count();
  if (tree.empty()) return summary;
  summary.leaf_filter_ =
      make_filter(tree.leaf_values(), leaf_bits_per_element,
                  tree.element_count(), seed ^ 0x1eafULL);
  summary.internal_filter_ =
      make_filter(tree.internal_values(), internal_bits_per_element,
                  tree.element_count(), seed ^ 0x1257e27a1ULL);
  return summary;
}

bool ArtSummary::leaf_may_contain(std::uint64_t value) const {
  return !leaf_filter_ || leaf_filter_->contains(value);
}

bool ArtSummary::internal_may_contain(std::uint64_t value) const {
  return !internal_filter_ || internal_filter_->contains(value);
}

std::size_t ArtSummary::total_bits() const {
  std::size_t bits = 0;
  if (leaf_filter_) bits += leaf_filter_->bit_count();
  if (internal_filter_) bits += internal_filter_->bit_count();
  return bits;
}

std::vector<std::uint8_t> ArtSummary::serialize() const {
  util::ByteWriter writer;
  serialize_into(writer);
  return writer.take();
}

std::size_t ArtSummary::serialized_size() const {
  std::size_t size = util::varint_size(element_count_) + 2;
  if (leaf_filter_) {
    const std::size_t inner = leaf_filter_->serialized_size();
    size += util::varint_size(inner) + inner;
  }
  if (internal_filter_) {
    const std::size_t inner = internal_filter_->serialized_size();
    size += util::varint_size(inner) + inner;
  }
  return size;
}

void ArtSummary::serialize_into(util::ByteWriter& out) const {
  out.varint(element_count_);
  out.u8(leaf_filter_ ? 1 : 0);
  out.u8(internal_filter_ ? 1 : 0);
  if (leaf_filter_) {
    out.varint(leaf_filter_->serialized_size());
    leaf_filter_->serialize_into(out);
  }
  if (internal_filter_) {
    out.varint(internal_filter_->serialized_size());
    internal_filter_->serialize_into(out);
  }
}

ArtSummary ArtSummary::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader reader(bytes);
  ArtSummary summary;
  summary.element_count_ = reader.varint();
  const bool has_leaf = reader.u8() != 0;
  const bool has_internal = reader.u8() != 0;
  if (has_leaf) {
    summary.leaf_filter_ =
        filter::BloomFilter::deserialize(reader.view(reader.varint()));
  }
  if (has_internal) {
    summary.internal_filter_ =
        filter::BloomFilter::deserialize(reader.view(reader.varint()));
  }
  if (!reader.done()) {
    throw std::invalid_argument("ArtSummary: trailing bytes in blob");
  }
  return summary;
}

namespace {

struct SearchContext {
  const ReconciliationTree& local;
  const ArtSummary& remote;
  int correction;
  std::vector<std::uint64_t> found;

  void visit(std::int32_t index, int consecutive_matches) {
    const auto& node =
        local.nodes()[static_cast<std::size_t>(index)];
    if (node.is_leaf()) {
      // A leaf whose value hash misses the peer's leaf filter is certainly
      // absent from the peer's set (Bloom filters have no false negatives).
      if (!remote.leaf_may_contain(node.value)) found.push_back(node.key);
      return;
    }
    int next_matches = 0;
    if (remote.internal_may_contain(node.value)) {
      next_matches = consecutive_matches + 1;
      // The paper's correction rule: prune only after `correction` + 1
      // consecutive internal matches.
      if (next_matches > correction) return;
    }
    visit(node.left, next_matches);
    visit(node.right, next_matches);
  }
};

}  // namespace

std::vector<std::uint64_t> find_local_differences(
    const ReconciliationTree& local, const ArtSummary& remote,
    int correction) {
  if (local.empty()) return {};
  if (correction < 0) {
    throw std::invalid_argument("find_local_differences: correction < 0");
  }
  SearchContext ctx{local, remote, correction, {}};
  ctx.visit(local.root(), 0);
  return std::move(ctx.found);
}

}  // namespace icd::art
