#include "overlay/transfer.hpp"

#include <cmath>
#include <stdexcept>

namespace icd::overlay {

namespace {

/// Receiver's per-sender symbols-desired request: its share of the symbols
/// still needed, padded by the decoding-overhead allowance of Section 6.1.
std::size_t requested_count(std::size_t needed, std::size_t sender_count,
                            const SimConfig& config) {
  const double share = static_cast<double>(needed) /
                       static_cast<double>(sender_count);
  return static_cast<std::size_t>(
      std::ceil(share * (1.0 + config.recode_domain_allowance)));
}

}  // namespace

TransferResult run_pair_transfer(const PairScenario& scenario,
                                 Strategy strategy, const SimConfig& config) {
  util::Xoshiro256 rng(config.seed);
  const std::uint64_t universe = scenario.distinct_symbols;
  ReceiverNode receiver(scenario.receiver, universe, config);
  SenderNode sender(scenario.sender, strategy, config);

  TransferResult result;
  const std::size_t target = config.target();
  if (receiver.symbol_count() >= target) {
    result.completed = true;
    return result;
  }
  result.needed = target - receiver.symbol_count();

  const std::size_t requested = requested_count(result.needed, 1, config);
  if (strategy_uses_bloom(strategy)) {
    sender.install_bloom(receiver.make_bloom(), requested, rng);
  }
  if (strategy_uses_minwise(strategy)) {
    sketch::MinwiseSketch receiver_sketch = receiver.make_sketch();
    sketch::MinwiseSketch sender_sketch(universe, config.sketch_permutations);
    sender_sketch.update_all(scenario.sender);
    const double r =
        sketch::MinwiseSketch::resemblance(receiver_sketch, sender_sketch);
    sender.install_containment_estimate(sketch::containment_from_resemblance(
        r, scenario.receiver.size(), scenario.sender.size()));
  }

  const std::size_t start = receiver.symbol_count();
  const std::size_t cap = result.needed * config.max_transmission_factor;
  while (receiver.symbol_count() < target && result.transmissions < cap) {
    receiver.apply(sender.produce(rng));
    ++result.transmissions;
  }
  result.rounds = result.transmissions;
  result.acquired = receiver.symbol_count() - start;
  result.completed = receiver.symbol_count() >= target;
  return result;
}

TransferResult run_pair_with_full_sender(const PairScenario& scenario,
                                         Strategy strategy,
                                         const SimConfig& config) {
  util::Xoshiro256 rng(config.seed);
  const std::uint64_t universe = scenario.distinct_symbols;
  ReceiverNode receiver(scenario.receiver, universe, config);
  SenderNode sender(scenario.sender, strategy, config);
  FullSender full(0);

  TransferResult result;
  const std::size_t target = config.target();
  if (receiver.symbol_count() >= target) {
    result.completed = true;
    return result;
  }
  result.needed = target - receiver.symbol_count();

  // With two senders serving it, the receiver requests half its needs from
  // the partial sender.
  const std::size_t requested = requested_count(result.needed, 2, config);
  if (strategy_uses_bloom(strategy)) {
    sender.install_bloom(receiver.make_bloom(), requested, rng);
  }
  if (strategy_uses_minwise(strategy)) {
    sketch::MinwiseSketch receiver_sketch = receiver.make_sketch();
    sketch::MinwiseSketch sender_sketch(universe, config.sketch_permutations);
    sender_sketch.update_all(scenario.sender);
    const double r =
        sketch::MinwiseSketch::resemblance(receiver_sketch, sender_sketch);
    sender.install_containment_estimate(sketch::containment_from_resemblance(
        r, scenario.receiver.size(), scenario.sender.size()));
  }

  const std::size_t start = receiver.symbol_count();
  const std::size_t cap = result.needed * config.max_transmission_factor;
  while (receiver.symbol_count() < target && result.rounds < cap) {
    receiver.apply(full.produce());
    if (receiver.symbol_count() >= target) {
      ++result.rounds;  // the finishing round still counts
      break;
    }
    receiver.apply(sender.produce(rng));
    ++result.transmissions;
    ++result.rounds;
  }
  result.acquired = receiver.symbol_count() - start;
  result.completed = receiver.symbol_count() >= target;
  return result;
}

TransferResult run_multi_transfer(const MultiScenario& scenario,
                                  Strategy strategy, const SimConfig& config) {
  util::Xoshiro256 rng(config.seed);
  const std::uint64_t universe = scenario.distinct_symbols;
  ReceiverNode receiver(scenario.receiver, universe, config);

  TransferResult result;
  const std::size_t target = config.target();
  if (receiver.symbol_count() >= target) {
    result.completed = true;
    return result;
  }
  result.needed = target - receiver.symbol_count();

  const std::size_t requested =
      requested_count(result.needed, scenario.senders.size(), config);
  std::vector<SenderNode> senders;
  senders.reserve(scenario.senders.size());
  sketch::MinwiseSketch receiver_sketch = receiver.make_sketch();
  for (const auto& symbols : scenario.senders) {
    SenderNode sender(symbols, strategy, config);
    if (strategy_uses_bloom(strategy)) {
      sender.install_bloom(receiver.make_bloom(), requested, rng);
    }
    if (strategy_uses_minwise(strategy)) {
      sketch::MinwiseSketch sender_sketch(universe,
                                          config.sketch_permutations);
      sender_sketch.update_all(symbols);
      const double r =
          sketch::MinwiseSketch::resemblance(receiver_sketch, sender_sketch);
      sender.install_containment_estimate(
          sketch::containment_from_resemblance(r, scenario.receiver.size(),
                                               symbols.size()));
    }
    senders.push_back(std::move(sender));
  }

  const std::size_t start = receiver.symbol_count();
  const std::size_t cap = result.needed * config.max_transmission_factor;
  while (receiver.symbol_count() < target && result.rounds < cap) {
    for (SenderNode& sender : senders) {
      receiver.apply(sender.produce(rng));
      ++result.transmissions;
      if (receiver.symbol_count() >= target) break;
    }
    ++result.rounds;
  }
  result.acquired = receiver.symbol_count() - start;
  result.completed = receiver.symbol_count() >= target;
  return result;
}

}  // namespace icd::overlay
