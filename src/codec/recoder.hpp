#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "codec/degree.hpp"
#include "codec/peeling.hpp"
#include "codec/symbol.hpp"

/// Recoded content (Section 5.4.2): a partial sender — one that cannot yet
/// decode the file — blends the encoded symbols it *does* hold into recoded
/// symbols, personalizing the mix to what it knows about the receiver. The
/// degree rules live here, the blend in core::Peer::recode_into and
/// recode_slots_into (which read the sender's payloads in place), and the
/// receiver's solver in RecodeDecoder.
namespace icd::codec {

/// The paper's experimental degree cap for recoding ("a degree limit of
/// 50"), imposed "primarily to keep the listing of identifiers short".
inline constexpr std::size_t kDefaultRecodeDegreeLimit = 50;

/// The degree that maximizes the probability a recoded symbol is
/// *immediately* useful, given the sender holds n symbols of which the
/// receiver already has a fraction c: the degree at which one constituent
/// is expected to be unknown to the receiver, d ~= 1 + c/(1-c) = 1/(1-c).
///
/// Note on fidelity: the paper prints d = ceil((n(1-c)+1)/(nc)), which
/// *decreases* in c; but its own parenthetical ("as recoded symbols are
/// received, correlation naturally increases and the target degree
/// increases accordingly") and the Recode/MW rule (scale degree by
/// 1/(1-c)) both require d to *increase* with c. We follow the intent:
/// d = ceil((n c + 1)/(n (1 - c))), the printed formula with the roles of
/// c and 1-c restored. See DESIGN.md.
std::size_t optimal_recode_degree(std::size_t n, double c,
                                  std::size_t cap = kDefaultRecodeDegreeLimit);

/// Draws a recoding degree: a base degree from `dist` (already truncated to
/// the cap), floored at the locally-optimal degree, as in the paper ("we
/// use this value of d as a lower limit on the actual degrees generated,
/// and generate degrees between this value and the maximum allowable
/// degree").
std::size_t draw_recode_degree(const DegreeDistribution& dist, std::size_t n,
                               double c, util::Xoshiro256& rng,
                               std::size_t cap = kDefaultRecodeDegreeLimit);

/// The Recode/MW degree rule of Section 6.2: "If the regular recoding
/// algorithm randomly generates a degree d symbol, generate a recoded
/// symbol of degree floor(d / (1-c)), subject to the maximum degree."
std::size_t minwise_recode_degree(std::size_t base_degree, double c,
                                  std::size_t cap = kDefaultRecodeDegreeLimit);

/// Receiver side: resolves incoming recoded symbols against the set of
/// encoded symbols already held, recovering fresh encoded symbols by the
/// substitution rule ("A peer that receives z1, z2 and z3 can immediately
/// recover y13. Then by substituting y13 into z3, the peer can recover
/// y5 ...").
///
/// It is also the store a sender serves from: every held symbol gets a
/// dense slot on acquisition (slot k is acquisition_log()[k]), so a sender
/// that resolved its domain to slots once reads payloads by index.
class RecodeDecoder {
 public:
  RecodeDecoder() = default;

  /// Seeds the solver with an encoded symbol the receiver already holds.
  /// Returns false if the id was already present.
  bool add_held_symbol(const EncodedSymbol& symbol);

  /// View variant for payloads borrowed from a transport frame: the
  /// payload is copied exactly once, into the solver's storage.
  bool add_held_symbol(const EncodedSymbolView& symbol);

  /// Feeds one recoded symbol; returns true if it immediately recovered at
  /// least one new encoded symbol.
  bool add_recoded(const RecodedSymbol& symbol);

  /// View variant; constituents and payload may borrow a transport frame.
  bool add_recoded(const RecodedSymbolView& symbol);

  /// Encoded symbols recovered (or held) so far.
  std::size_t symbol_count() const { return peeler_.known_count(); }
  bool has_symbol(std::uint64_t id) const { return peeler_.is_known(id); }

  /// Payload of a held/recovered symbol; throws if absent.
  const std::vector<std::uint8_t>& payload(std::uint64_t id) const {
    return peeler_.value(id);
  }

  /// Dense slot of a held/recovered symbol: its index in acquisition_log(),
  /// fixed when the symbol is acquired. nullopt if absent.
  std::optional<std::uint32_t> slot(std::uint64_t id) const {
    return peeler_.slot(id);
  }

  /// Payload of the symbol in `slot` (< symbol_count()) by array index —
  /// the send path's read, which never hashes. The payloads live in one
  /// slab that grows only when a symbol is acquired.
  const std::vector<std::uint8_t>& slot_payload(std::uint32_t slot) const {
    return peeler_.slot_value(slot);
  }

  /// Recoded symbols buffered with >= 2 unknown constituents.
  std::size_t buffered_count() const { return peeler_.buffered_count(); }
  /// Recoded symbols that arrived fully redundant.
  std::size_t redundant_count() const { return peeler_.redundant_count(); }

  /// All ids ever recovered or held, in acquisition order; use an offset to
  /// consume increments.
  const std::vector<std::uint64_t>& acquisition_log() const {
    return peeler_.recovery_log();
  }

  /// Solver op counters (equations, substitution incidences, recoveries).
  const DecoderStats& stats() const { return peeler_.stats(); }

  /// Heap bytes pinned (held payloads + buffered recode equations).
  std::size_t memory_bytes() const { return peeler_.memory_bytes(); }

  /// Releases recode-solver storage (buffered equations with unresolved
  /// constituents) once no further symbols will arrive. Held/recovered
  /// payloads — payload() serving — survive. Idempotent.
  void release_solver_state() { peeler_.release_solver_state(); }

 private:
  PeelingDecoder<std::uint64_t> peeler_;
};

}  // namespace icd::codec
