#pragma once

#include <array>
#include <optional>
#include <string_view>

/// The five content-selection strategies compared in Section 6.2.
namespace icd::overlay {

enum class Strategy {
  /// "The transmitting node randomly picks an available symbol to send."
  /// (the Swarmcast-style baseline).
  kRandom,
  /// Random selection among symbols that miss the receiver's Bloom filter.
  kRandomBloom,
  /// Recoded symbols generated from the sender's entire working set.
  kRecode,
  /// Recoded symbols generated only from symbols missing the receiver's
  /// Bloom filter.
  kRecodeBloom,
  /// Recoded symbols with the degree distribution rescaled by the min-wise
  /// correlation estimate (degree d -> floor(d / (1 - c))).
  kRecodeMinwise,
};

/// All strategies in the paper's plotting order.
inline constexpr std::array<Strategy, 5> kAllStrategies = {
    Strategy::kRandom, Strategy::kRandomBloom, Strategy::kRecode,
    Strategy::kRecodeBloom, Strategy::kRecodeMinwise};

constexpr std::string_view strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kRandom:
      return "Random";
    case Strategy::kRandomBloom:
      return "Random/BF";
    case Strategy::kRecode:
      return "Recode";
    case Strategy::kRecodeBloom:
      return "Recode/BF";
    case Strategy::kRecodeMinwise:
      return "Recode/MW";
  }
  return "unknown";
}

/// The strategy's token in `.scn` and SwarmSpec files and in bench keys.
constexpr std::string_view strategy_key(Strategy strategy) {
  switch (strategy) {
    case Strategy::kRandom: return "random";
    case Strategy::kRandomBloom: return "randombf";
    case Strategy::kRecode: return "recode";
    case Strategy::kRecodeBloom: return "recodebf";
    case Strategy::kRecodeMinwise: return "recodemw";
  }
  return "unknown";
}

/// The strategy a strategy_key token names, if any.
constexpr std::optional<Strategy> parse_strategy_key(std::string_view key) {
  for (const Strategy strategy : kAllStrategies) {
    if (strategy_key(strategy) == key) return strategy;
  }
  return std::nullopt;
}

constexpr bool strategy_uses_bloom(Strategy strategy) {
  return strategy == Strategy::kRandomBloom ||
         strategy == Strategy::kRecodeBloom;
}

constexpr bool strategy_uses_minwise(Strategy strategy) {
  return strategy == Strategy::kRecodeMinwise;
}

}  // namespace icd::overlay
