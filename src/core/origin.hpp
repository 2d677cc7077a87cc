#pragma once

#include <cstdint>
#include <vector>

#include "codec/block_source.hpp"
#include "codec/degree.hpp"
#include "codec/encoder.hpp"
#include "codec/symbol.hpp"

/// The content origin: a server holding the complete file, exposing it as a
/// digital fountain (Section 2.3). Any number of origins with different
/// stream seeds serve uncorrelated symbol streams ("fountain flows generated
/// by senders with different sources of randomness are uncorrelated"), so
/// parallel downloads from full senders need no orchestration.
namespace icd::core {

class OriginServer {
 public:
  /// Splits `content` into blocks of `block_size` bytes and prepares the
  /// fountain. `session_seed` defines the code all peers share;
  /// `stream_index` decorrelates the id streams of multiple origins of the
  /// same content.
  OriginServer(std::vector<std::uint8_t> content, std::size_t block_size,
               codec::DegreeDistribution distribution,
               std::uint64_t session_seed, std::uint64_t stream_index = 0);

  /// Produces the next symbol of this origin's stream.
  codec::EncodedSymbol next() { return encoder_.next(); }
  /// The next `count` symbols of the stream: a symbol universe for the
  /// Figure 6-8 setups. Stream ids are sequential, so they are distinct.
  std::vector<codec::EncodedSymbol> next_symbols(std::size_t count);

  /// Produces the symbol with a specific id (any 64-bit id is valid).
  codec::EncodedSymbol encode(std::uint64_t id) const {
    return encoder_.encode(id);
  }

  /// Reserves the next stream id without encoding it: next() ≡
  /// encode(take_next_id()). The coordinator draws ids in deterministic
  /// order; shard workers encode them in parallel (encode() is const).
  std::uint64_t take_next_id() { return encoder_.take_next_id(); }

  const codec::CodeParameters& parameters() const {
    return encoder_.parameters();
  }
  const codec::DegreeDistribution& distribution() const {
    return encoder_.distribution();
  }
  std::size_t content_size() const { return content_.size(); }
  std::size_t block_count() const { return source_.block_count(); }
  std::size_t block_size() const { return source_.block_size(); }

 private:
  std::vector<std::uint8_t> content_;
  codec::BlockSource source_;
  codec::Encoder encoder_;
};

}  // namespace icd::core
