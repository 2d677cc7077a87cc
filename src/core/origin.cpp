#include "core/origin.hpp"

#include "util/hash.hpp"

namespace icd::core {

OriginServer::OriginServer(std::vector<std::uint8_t> content,
                           std::size_t block_size,
                           codec::DegreeDistribution distribution,
                           std::uint64_t session_seed,
                           std::uint64_t stream_index)
    : content_(std::move(content)), source_(content_, block_size),
      encoder_(source_, std::move(distribution), session_seed,
               util::mix64(stream_index + 1)) {}

std::vector<codec::EncodedSymbol> OriginServer::next_symbols(
    std::size_t count) {
  std::vector<codec::EncodedSymbol> symbols;
  symbols.reserve(count);
  for (std::size_t i = 0; i < count; ++i) symbols.push_back(next());
  return symbols;
}

}  // namespace icd::core
