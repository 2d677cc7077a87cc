#include "overlay/node.hpp"

#include <algorithm>
#include <stdexcept>

namespace icd::overlay {

ReceiverNode::ReceiverNode(std::vector<std::uint64_t> initial,
                           std::uint64_t universe_size,
                           const SimConfig& config)
    : initial_(std::move(initial)), universe_size_(universe_size),
      config_(config) {
  for (const std::uint64_t id : initial_) {
    decoder_.add_held_symbol(codec::EncodedSymbol{id, {}});
  }
}

std::size_t ReceiverNode::apply(const Transmission& transmission) {
  const std::size_t before = decoder_.symbol_count();
  if (transmission.is_recoded()) {
    decoder_.add_recoded(codec::RecodedSymbol{transmission.constituents, {}});
  } else {
    decoder_.add_held_symbol(codec::EncodedSymbol{transmission.id, {}});
  }
  return decoder_.symbol_count() - before;
}

sketch::MinwiseSketch ReceiverNode::make_sketch() const {
  sketch::MinwiseSketch sketch(universe_size_, config_.sketch_permutations);
  sketch.update_all(initial_);
  return sketch;
}

filter::BloomFilter ReceiverNode::make_bloom() const {
  auto filter = filter::BloomFilter::with_bits_per_element(
      std::max<std::size_t>(1, initial_.size()),
      filter::kSummaryBitsPerElement);
  filter.insert_all(initial_);
  return filter;
}

SenderNode::SenderNode(std::vector<std::uint64_t> symbols, Strategy strategy,
                       const SimConfig& config)
    : symbols_(std::move(symbols)), strategy_(strategy), config_(config),
      base_distribution_(
          codec::DegreeDistribution::robust_soliton(
              std::max<std::size_t>(symbols_.size(), 2))
              .truncated(config.recode_degree_limit)) {
  if (symbols_.empty()) {
    throw std::invalid_argument("SenderNode: empty working set");
  }
}

void SenderNode::install_bloom(const filter::BloomFilter& receiver_filter,
                               std::size_t requested_count,
                               util::Xoshiro256& rng) {
  if (!strategy_uses_bloom(strategy_)) return;
  filtered_.clear();
  for (const std::uint64_t id : symbols_) {
    if (!receiver_filter.contains(id)) filtered_.push_back(id);
  }
  if (strategy_ == Strategy::kRecodeBloom && !filtered_.empty()) {
    recode_domain_ = filtered_;
    if (requested_count > 0 && recode_domain_.size() > requested_count) {
      util::shuffle(recode_domain_, rng);
      recode_domain_.resize(requested_count);
      std::sort(recode_domain_.begin(), recode_domain_.end());
    }
    restricted_distribution_ =
        codec::DegreeDistribution::robust_soliton(
            std::max<std::size_t>(recode_domain_.size(), 2))
            .truncated(config_.recode_degree_limit);
  }
}

void SenderNode::install_containment_estimate(double c) {
  containment_estimate_ = std::clamp(c, 0.0, 1.0);
}

std::size_t SenderNode::draw_degree(const std::vector<std::uint64_t>& domain,
                                    util::Xoshiro256& rng) const {
  const codec::DegreeDistribution& dist =
      (strategy_ == Strategy::kRecodeBloom && restricted_distribution_)
          ? *restricted_distribution_
          : base_distribution_;
  std::size_t degree = dist.sample(rng);
  if (strategy_ == Strategy::kRecodeMinwise) {
    degree = codec::minwise_recode_degree(degree, containment_estimate_,
                                          config_.recode_degree_limit);
  }
  return std::min(degree, domain.size());
}

Transmission SenderNode::produce(util::Xoshiro256& rng) const {
  switch (strategy_) {
    case Strategy::kRandom: {
      return Transmission{symbols_[rng.next_below(symbols_.size())], {}};
    }
    case Strategy::kRandomBloom: {
      const auto& domain = send_domain();
      return Transmission{domain[rng.next_below(domain.size())], {}};
    }
    case Strategy::kRecode:
    case Strategy::kRecodeMinwise: {
      const std::size_t degree = draw_degree(symbols_, rng);
      Transmission t;
      t.constituents.reserve(degree);
      for (const std::uint64_t pick :
           util::sample_without_replacement(symbols_.size(), degree, rng)) {
        t.constituents.push_back(symbols_[static_cast<std::size_t>(pick)]);
      }
      return t;
    }
    case Strategy::kRecodeBloom: {
      const auto& domain = recode_domain();
      const std::size_t degree = draw_degree(domain, rng);
      Transmission t;
      t.constituents.reserve(degree);
      for (const std::uint64_t pick :
           util::sample_without_replacement(domain.size(), degree, rng)) {
        t.constituents.push_back(domain[static_cast<std::size_t>(pick)]);
      }
      return t;
    }
  }
  throw std::logic_error("SenderNode::produce: unknown strategy");
}

FullSender::FullSender(std::uint64_t stream_index)
    : next_id_((stream_index + 1) << 40) {}

Transmission FullSender::produce() { return Transmission{next_id_++, {}}; }

}  // namespace icd::overlay
