#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/solver_stats.hpp"
#include "codec/symbol.hpp"

/// Generic peeling solver implementing the *substitution rule* of Luby et
/// al. [16], shared by the block-level decoder (equations over source block
/// indices) and the recode-level decoder of Section 5.4.2 (equations over
/// encoded symbol ids).
///
/// Each equation is an XOR constraint: payload = XOR of the variables named
/// in `keys`. Whenever an equation has exactly one unknown variable, that
/// variable is recovered and substituted into every other equation that
/// names it, which may cascade.
///
/// Layout (see DESIGN.md "Solver internals"): equations live in
/// structure-of-arrays form. The initial unknown keys of every buffered
/// equation are appended to one flat CSR arena (`arena_` + `eq_begin_`
/// offsets) that is never edited afterwards; the *live* unknown set of an
/// equation is tracked only as a count (`eq_unknowns_`) plus the XOR of its
/// unknown keys (`eq_acc_`). Substituting a recovered key is then O(1) per
/// (key, equation) incidence — decrement the counter, XOR the key out of
/// the accumulator, fold the value into the payload — and when the counter
/// hits 1 the surviving key *is* the accumulator: no scans, no erases. The
/// waiting index is a flat pool of singly-linked incidence nodes
/// (tail-appended so per-key traversal preserves equation insertion order),
/// and the known map is a dense value table + bitmap when keys are 32-bit
/// block indices. Sparse keys (recode-level 64-bit ids) look up both the
/// waiting index and their slot in a slab of values kept in recovery order
/// through one open-addressing table (`detail::ProbeTable`), which
/// allocates nothing per entry. Retired and redundant payload buffers are
/// recycled through a small freelist, the `wire::BufferPool` idiom.
///
/// Observable behavior (recovery values, recovery_log order,
/// redundant/buffered counts) is bit-for-bit identical to the list-based
/// `ReferencePeelingDecoder` (codec/solver_reference.hpp); the randomized
/// property test in tests/solver_property_test.cpp pins this.
namespace icd::codec {
namespace detail {

/// Null link / null index sentinel for the flat solver structures.
inline constexpr std::uint32_t kSolverNil = 0xffffffffu;

/// One (key, equation) incidence in the waiting index's node pool.
struct Incidence {
  std::uint32_t eq = 0;
  std::uint32_t next = kSolverNil;
};

struct IncidenceChain {
  std::uint32_t head = kSolverNil;
  std::uint32_t tail = kSolverNil;

  bool operator==(const IncidenceChain&) const = default;
};

/// Open-addressing map for sparse integral keys (recode-level 64-bit symbol
/// ids, signed test keys): linear probing over a power-of-two array of
/// cells, each holding a key and its small value inline, so an entry costs
/// no allocation. A cell is free while its value equals `kVacant`; stored
/// values never do. Erase shifts the rest of the probe run back (no
/// tombstones). The table starts at kFirstCells and doubles past 3/4 load.
/// Const methods only read, so threads may look keys up in one const table
/// at once. Nothing iterates the cells, so no result depends on where a
/// key lands.
template <typename Key, typename Value, Value kVacant>
class ProbeTable {
 public:
  const Value* find(const Key& key) const {
    if (cells_.empty()) return nullptr;
    const Cell& cell = cells_[probe(key)];
    return cell.value == kVacant ? nullptr : &cell.value;
  }

  /// Inserts (key, value) unless `key` is present. Returns the stored value
  /// and whether it was inserted. `value` must not be kVacant.
  std::pair<Value*, bool> try_emplace(const Key& key, const Value& value) {
    std::size_t i = 0;
    if (!cells_.empty()) {
      i = probe(key);
      if (cells_[i].value != kVacant) return {&cells_[i].value, false};
    }
    if ((size_ + 1) * 4 > cells_.size() * 3) {
      grow();
      i = probe(key);
    }
    cells_[i] = Cell{key, value};
    ++size_;
    return {&cells_[i].value, true};
  }

  /// Removes `key` and returns its value (kVacant if it was absent).
  Value take(const Key& key) {
    if (cells_.empty()) return kVacant;
    std::size_t hole = probe(key);
    const Value taken = cells_[hole].value;
    if (taken == kVacant) return kVacant;
    // Backward shift: each later entry of the run moves into the hole
    // unless its home lies cyclically in (hole, its cell] — there the
    // move would put it before its home, out of find()'s reach.
    for (std::size_t j = (hole + 1) & mask(); cells_[j].value != kVacant;
         j = (j + 1) & mask()) {
      if (((j - home(cells_[j].key)) & mask()) >= ((j - hole) & mask())) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].value = kVacant;
    --size_;
    return taken;
  }

  /// Frees the cells; the next insert starts over at kFirstCells.
  void clear() {
    cells_ = std::vector<Cell>();
    size_ = 0;
  }

  std::size_t memory_bytes() const { return cells_.capacity() * sizeof(Cell); }

 private:
  struct Cell {
    Key key;
    Value value;
  };

  /// Small first allocation: many recode decoders hold only a few dozen
  /// ids, and the table doubles from here.
  static constexpr std::size_t kFirstCells = 8;

  std::size_t mask() const { return cells_.size() - 1; }

  /// Multiplicative (Fibonacci) mixing, top bits as the cell index: held
  /// ids come in runs counting up from hashed starts
  /// (Encoder::take_next_id), and one multiply spreads a run evenly.
  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// The cell holding `key`, or the free cell that ends its probe run.
  /// Requires a non-empty table (load < 1 keeps a free cell).
  std::size_t probe(const Key& key) const {
    std::size_t i = home(key);
    while (cells_[i].value != kVacant && cells_[i].key != key) {
      i = (i + 1) & mask();
    }
    return i;
  }

  void grow() {
    std::vector<Cell> old(cells_.empty() ? kFirstCells : cells_.size() * 2,
                          Cell{Key{}, kVacant});
    old.swap(cells_);
    shift_ = 64 - std::countr_zero(cells_.size());
    for (const Cell& cell : old) {
      if (cell.value != kVacant) cells_[probe(cell.key)] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

/// Recovered-value store. Primary template, for sparse key universes
/// (recode-level 64-bit symbol ids, signed test keys): values live in a
/// slab in insertion order, and a ProbeTable names each key's slot. The
/// solver inserts exactly when it appends to its recovery log, so slot k
/// holds the value of recovery_log()[k] — callers that already know a
/// key's slot read its value without a lookup.
template <typename Key>
class KnownStore {
 public:
  bool contains(const Key& key) const { return slots_.find(key) != nullptr; }

  const std::vector<std::uint8_t>* find(const Key& key) const {
    const std::uint32_t* slot = slots_.find(key);
    return slot == nullptr ? nullptr : &slab_[*slot];
  }

  std::optional<std::uint32_t> slot(const Key& key) const {
    const std::uint32_t* slot = slots_.find(key);
    if (slot == nullptr) return std::nullopt;
    return *slot;
  }

  const std::vector<std::uint8_t>& at(std::uint32_t slot) const {
    return slab_[slot];
  }

  void insert(const Key& key, std::vector<std::uint8_t> value) {
    slots_.try_emplace(key, static_cast<std::uint32_t>(slab_.size()));
    slab_.push_back(std::move(value));
  }

  std::size_t size() const { return slab_.size(); }

  std::size_t memory_bytes() const {
    // The slot table's cells, the slab's vector headers, then the values.
    std::size_t bytes = slots_.memory_bytes() +
                        slab_.capacity() * sizeof(std::vector<std::uint8_t>);
    for (const auto& value : slab_) bytes += value.capacity();
    return bytes;
  }

 private:
  ProbeTable<Key, std::uint32_t, kSolverNil> slots_;
  std::vector<std::vector<std::uint8_t>> slab_;
};

/// Dense specialization for block-index keys: value table indexed by key
/// plus a presence bitmap. Block indices are < block_count, so the table
/// stays proportional to the source size.
template <>
class KnownStore<std::uint32_t> {
 public:
  bool contains(std::uint32_t key) const {
    return key < values_.size() &&
           ((bits_[key >> 6] >> (key & 63)) & 1) != 0;
  }

  const std::vector<std::uint8_t>* find(std::uint32_t key) const {
    return contains(key) ? &values_[key] : nullptr;
  }

  void insert(std::uint32_t key, std::vector<std::uint8_t> value) {
    if (key >= values_.size()) {
      const std::size_t want =
          std::max<std::size_t>(std::size_t{key} + 1, values_.size() * 2);
      values_.resize(want);
      bits_.resize((want + 63) / 64, 0);
    }
    values_[key] = std::move(value);
    bits_[key >> 6] |= std::uint64_t{1} << (key & 63);
    ++size_;
  }

  std::size_t size() const { return size_; }

  std::size_t memory_bytes() const {
    std::size_t bytes =
        values_.capacity() * sizeof(std::vector<std::uint8_t>) +
        bits_.capacity() * sizeof(std::uint64_t);
    for (const auto& value : values_) bytes += value.capacity();
    return bytes;
  }

 private:
  std::vector<std::vector<std::uint8_t>> values_;
  std::vector<std::uint64_t> bits_;  // presence bitmap over values_
  std::size_t size_ = 0;
};

/// Waiting index: key -> chain of incidence nodes. Primary template: a
/// ProbeTable of chains for sparse key universes. A stored chain is never
/// empty, so the empty chain marks a free cell.
template <typename Key>
class IncidenceIndex {
 public:
  /// Appends incidence `idx` to `key`'s chain. Returns the chain's old
  /// tail, whose `next` the caller points at `idx`, or kSolverNil if `key`
  /// had no chain.
  std::uint32_t append(const Key& key, std::uint32_t idx) {
    const auto [chain, inserted] =
        chains_.try_emplace(key, IncidenceChain{idx, idx});
    if (inserted) return kSolverNil;
    const std::uint32_t tail = chain->tail;
    chain->tail = idx;
    return tail;
  }

  /// Removes the chain for `key` and returns its head (kSolverNil if none).
  std::uint32_t detach(const Key& key) { return chains_.take(key).head; }

  void clear() { chains_.clear(); }

  std::size_t memory_bytes() const { return chains_.memory_bytes(); }

 private:
  ProbeTable<Key, IncidenceChain, IncidenceChain{}> chains_;
};

/// Dense specialization for block-index keys: flat vector of chains.
template <>
class IncidenceIndex<std::uint32_t> {
 public:
  std::uint32_t append(std::uint32_t key, std::uint32_t idx) {
    if (key >= chains_.size()) {
      chains_.resize(
          std::max<std::size_t>(std::size_t{key} + 1, chains_.size() * 2));
    }
    IncidenceChain& chain = chains_[key];
    const std::uint32_t tail = chain.tail;
    if (chain.head == kSolverNil) chain.head = idx;
    chain.tail = idx;
    return tail;
  }

  std::uint32_t detach(std::uint32_t key) {
    if (key >= chains_.size()) return kSolverNil;
    const std::uint32_t head = chains_[key].head;
    chains_[key] = IncidenceChain{};
    return head;
  }

  void clear() {
    chains_.clear();
    chains_.shrink_to_fit();
  }

  std::size_t memory_bytes() const {
    return chains_.capacity() * sizeof(IncidenceChain);
  }

 private:
  std::vector<IncidenceChain> chains_;
};

}  // namespace detail

template <typename Key>
class PeelingDecoder {
  static_assert(std::is_integral_v<Key>,
                "PeelingDecoder keys are integral ids (block index, symbol "
                "id); the XOR accumulator relies on it");

 public:
  PeelingDecoder() = default;

  /// Declares `key` known with the given value. Typically used to seed the
  /// solver with already-held symbols before feeding recoded equations.
  /// Returns false (and changes nothing) if the key was already known.
  bool mark_known(const Key& key, std::vector<std::uint8_t> value) {
    if (known_.contains(key)) return false;
    recover(key, std::move(value));
    drain();
    return true;
  }

  /// Span variant: the value is copied exactly once, into the solver's own
  /// storage — the single copy the zero-copy receive path budgets for.
  bool mark_known(const Key& key, std::span<const std::uint8_t> value) {
    if (known_.contains(key)) return false;
    recover(key, acquire_payload(value));
    drain();
    return true;
  }

  /// Adds the constraint payload = XOR_{k in keys} value(k). Duplicate keys
  /// within one equation cancel (x ^ x = 0) and are removed up front.
  /// Returns true if the equation caused at least one new variable to be
  /// recovered (immediately useful), false if it was buffered or redundant.
  bool add_equation(std::vector<Key> keys, std::vector<std::uint8_t> payload) {
    return add_equation_impl(keys, std::move(payload));
  }

  /// Span variant for frames decoded in place: keys and payload may borrow
  /// a transport buffer; the payload is copied exactly once, into a pooled
  /// solver buffer.
  bool add_equation(std::span<const Key> keys,
                    std::span<const std::uint8_t> payload) {
    return add_equation_impl(keys, acquire_payload(payload));
  }

  bool is_known(const Key& key) const { return known_.contains(key); }

  /// Value of a recovered variable; throws if unknown.
  const std::vector<std::uint8_t>& value(const Key& key) const {
    const auto* found = known_.find(key);
    if (found == nullptr) {
      throw std::out_of_range("PeelingDecoder: key not recovered");
    }
    return *found;
  }

  std::size_t known_count() const { return known_.size(); }

  /// Slot of a recovered key: its position in recovery_log(), assigned at
  /// recovery and never moved. nullopt if unknown. Sparse-key decoders
  /// only; 32-bit block indices are their own dense index.
  std::optional<std::uint32_t> slot(const Key& key) const {
    return known_.slot(key);
  }

  /// Value of the key in `slot` (< known_count()): an array index, no
  /// lookup. Sparse-key decoders only, as slot().
  const std::vector<std::uint8_t>& slot_value(std::uint32_t slot) const {
    return known_.at(slot);
  }

  /// Equations still waiting on 2+ unknowns.
  std::size_t buffered_count() const { return live_equations_; }

  /// Equations that arrived with all variables already known (fully
  /// redundant at arrival).
  std::size_t redundant_count() const { return redundant_; }

  /// Every recovered key in recovery order (seeded keys included). Callers
  /// track an offset into this log to observe incremental recoveries.
  const std::vector<Key>& recovery_log() const { return log_; }

  /// Solver op counters (equations added, incidences substituted, keys
  /// recovered, redundant arrivals). Monotonic; survives
  /// release_solver_state().
  const DecoderStats& stats() const { return stats_; }

  // --- Equation plane -----------------------------------------------------
  // Read-only access to the buffered-equation arrays, consumed by the
  // incremental inactivation solver (which folds live residual equations
  // into its GF(2) elimination state without re-storing them) and by
  // white-box tests. Equation ids are dense and stable until
  // release_solver_state().

  /// Number of equations ever buffered (live + retired).
  std::size_t equation_count() const { return eq_unknowns_.size(); }

  /// True while the equation still has >= 2 unknowns.
  bool equation_live(std::size_t eq) const { return eq_unknowns_[eq] != 0; }

  std::uint32_t equation_unknown_count(std::size_t eq) const {
    return eq_unknowns_[eq];
  }

  /// The equation's unknown keys *at buffering time* (its CSR arena row).
  /// Keys recovered since then are identified via is_known(); their values
  /// are already folded into equation_payload().
  std::span<const Key> equation_keys(std::size_t eq) const {
    return std::span<const Key>(arena_.data() + eq_begin_[eq],
                                eq_begin_[eq + 1] - eq_begin_[eq]);
  }

  /// Current payload: original XOR values of all since-recovered keys.
  /// Meaningful only while equation_live(eq).
  const std::vector<std::uint8_t>& equation_payload(std::size_t eq) const {
    return eq_payload_[eq];
  }

  /// Heap bytes this decoder pins: recovered values (incl. the dense
  /// bitmap/table, or the slab and its slot table), the key arena and
  /// per-equation arrays, buffered payloads, the incidence pool + waiting
  /// index, the pending queue, the recovery log, and the payload freelist.
  /// Exact: every structure, the probe tables' cell arrays included, is
  /// vector storage counted at capacity.
  std::size_t memory_bytes() const {
    std::size_t bytes = known_.memory_bytes();
    bytes += arena_.capacity() * sizeof(Key);
    bytes += eq_begin_.capacity() * sizeof(std::uint32_t);
    bytes += eq_unknowns_.capacity() * sizeof(std::uint32_t);
    bytes += eq_acc_.capacity() * sizeof(Key);
    bytes += eq_payload_.capacity() * sizeof(std::vector<std::uint8_t>);
    for (const auto& payload : eq_payload_) bytes += payload.capacity();
    bytes += incidences_.capacity() * sizeof(detail::Incidence);
    bytes += waiting_.memory_bytes();
    bytes += pending_.capacity() * sizeof(Key);
    bytes += log_.capacity() * sizeof(Key);
    bytes += payload_pool_.capacity() * sizeof(std::vector<std::uint8_t>);
    for (const auto& payload : payload_pool_) bytes += payload.capacity();
    return bytes;
  }

  /// Releases solver-only storage — the key arena, per-equation arrays,
  /// the waiting index, the substitution queue, the payload freelist —
  /// once no further equations will ever arrive (session completion).
  /// Recovered values (`known_`), the recovery log, the redundancy counter
  /// and op stats survive: serving recoded symbols and content reassembly
  /// read them. Idempotent. Equation ids are invalidated.
  void release_solver_state() {
    arena_.clear();
    arena_.shrink_to_fit();
    eq_begin_.assign(1, 0);
    eq_begin_.shrink_to_fit();
    eq_unknowns_.clear();
    eq_unknowns_.shrink_to_fit();
    eq_acc_.clear();
    eq_acc_.shrink_to_fit();
    eq_payload_.clear();
    eq_payload_.shrink_to_fit();
    incidences_.clear();
    incidences_.shrink_to_fit();
    waiting_.clear();
    pending_.clear();
    pending_.shrink_to_fit();
    pending_head_ = 0;
    payload_pool_.clear();
    payload_pool_.shrink_to_fit();
    dedup_scratch_.clear();
    dedup_scratch_.shrink_to_fit();
    live_equations_ = 0;
  }

 private:
  /// Retired/redundant payload buffers are recycled up to this many; the
  /// wire::BufferPool bound, small enough that an idle decoder pins little.
  static constexpr std::size_t kMaxPooledPayloads = 64;

  std::vector<std::uint8_t> acquire_payload(
      std::span<const std::uint8_t> bytes) {
    std::vector<std::uint8_t> out;
    if (!payload_pool_.empty()) {
      out = std::move(payload_pool_.back());
      payload_pool_.pop_back();
    }
    out.assign(bytes.begin(), bytes.end());
    return out;
  }

  void recycle(std::vector<std::uint8_t>&& payload) {
    if (payload.capacity() == 0) return;
    if (payload_pool_.size() < kMaxPooledPayloads) {
      payload.clear();
      payload_pool_.push_back(std::move(payload));
    }
  }

  void recover(const Key& key, std::vector<std::uint8_t> value) {
    known_.insert(key, std::move(value));
    pending_.push_back(key);
    log_.push_back(key);
    ++stats_.recovered;
  }

  void link(const Key& key, std::uint32_t eq_id) {
    const std::uint32_t idx = static_cast<std::uint32_t>(incidences_.size());
    incidences_.push_back(detail::Incidence{eq_id, detail::kSolverNil});
    const std::uint32_t tail = waiting_.append(key, idx);
    if (tail != detail::kSolverNil) incidences_[tail].next = idx;
  }

  bool add_equation_impl(std::span<const Key> keys,
                         std::vector<std::uint8_t> payload) {
    ++stats_.equations_added;
    // Cancel duplicate keys (x XOR x = 0). Both producers
    // (symbol_neighbors, recoded constituents) emit sorted distinct keys;
    // detect that and skip the dedup pass on the hot path.
    bool sorted_distinct = true;
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
      if (!(keys[i] < keys[i + 1])) {
        sorted_distinct = false;
        break;
      }
    }
    std::span<const Key> effective = keys;
    if (!sorted_distinct) {
      dedup_scratch_.assign(keys.begin(), keys.end());
      std::sort(dedup_scratch_.begin(), dedup_scratch_.end());
      std::size_t out = 0;
      for (std::size_t i = 0; i < dedup_scratch_.size();) {
        std::size_t j = i + 1;
        while (j < dedup_scratch_.size() &&
               dedup_scratch_[j] == dedup_scratch_[i]) {
          ++j;
        }
        if ((j - i) % 2 == 1) dedup_scratch_[out++] = dedup_scratch_[i];
        i = j;
      }
      dedup_scratch_.resize(out);
      effective = dedup_scratch_;
    }

    // Substitute already-known variables; stage the unknowns in the arena.
    const std::size_t arena_mark = arena_.size();
    Key acc{};
    std::uint32_t unknowns = 0;
    for (const Key& k : effective) {
      if (const auto* value = known_.find(k)) {
        ++stats_.substitutions;
        xor_into(payload, *value);
      } else {
        arena_.push_back(k);
        acc ^= k;
        ++unknowns;
      }
    }

    if (unknowns == 0) {
      ++redundant_;
      ++stats_.redundant;
      recycle(std::move(payload));
      return false;
    }
    if (unknowns == 1) {
      const Key last = arena_.back();
      arena_.pop_back();
      recover(last, std::move(payload));
      drain();
      return true;
    }

    const std::uint32_t eq_id =
        static_cast<std::uint32_t>(eq_unknowns_.size());
    for (std::size_t i = arena_mark; i < arena_.size(); ++i) {
      link(arena_[i], eq_id);
    }
    eq_begin_.push_back(static_cast<std::uint32_t>(arena_.size()));
    eq_unknowns_.push_back(unknowns);
    eq_acc_.push_back(acc);
    eq_payload_.push_back(std::move(payload));
    ++live_equations_;
    return false;
  }

  // Substitutes every newly recovered key into the equations that name it.
  void drain() {
    while (pending_head_ < pending_.size()) {
      const Key key = pending_[pending_head_++];
      std::uint32_t idx = waiting_.detach(key);
      if (idx == detail::kSolverNil) continue;
      // Span, not reference: recover() below may grow the value table or
      // slab, moving the inner vectors — their heap buffers survive.
      const std::span<const std::uint8_t> value(*known_.find(key));
      while (idx != detail::kSolverNil) {
        const detail::Incidence inc = incidences_[idx];
        idx = inc.next;
        const std::uint32_t eq = inc.eq;
        if (eq_unknowns_[eq] == 0) continue;  // retired
        ++stats_.substitutions;
        xor_into(eq_payload_[eq], value);
        eq_acc_[eq] ^= key;
        if (--eq_unknowns_[eq] == 1) {
          // The counter/accumulator invariant: the surviving unknown IS
          // the accumulator.
          const Key last = eq_acc_[eq];
          eq_unknowns_[eq] = 0;
          --live_equations_;
          if (!known_.contains(last)) {
            recover(last, std::move(eq_payload_[eq]));
            eq_payload_[eq] = std::vector<std::uint8_t>();
          } else {
            recycle(std::move(eq_payload_[eq]));
            eq_payload_[eq] = std::vector<std::uint8_t>();
          }
        }
      }
    }
    pending_.clear();
    pending_head_ = 0;
  }

  detail::KnownStore<Key> known_;
  // Buffered equations, structure-of-arrays. arena_ holds every buffered
  // equation's initial unknown keys back to back; eq_begin_ is the CSR
  // offset array (size equation_count()+1).
  std::vector<Key> arena_;
  std::vector<std::uint32_t> eq_begin_{0};
  std::vector<std::uint32_t> eq_unknowns_;  // live unknown count; 0 = retired
  std::vector<Key> eq_acc_;                 // XOR of live unknown keys
  std::vector<std::vector<std::uint8_t>> eq_payload_;
  std::vector<detail::Incidence> incidences_;  // waiting-index node pool
  detail::IncidenceIndex<Key> waiting_;
  std::vector<Key> pending_;  // FIFO via pending_head_ cursor
  std::size_t pending_head_ = 0;
  std::vector<Key> log_;
  std::vector<std::vector<std::uint8_t>> payload_pool_;  // recycled buffers
  std::vector<Key> dedup_scratch_;
  std::size_t live_equations_ = 0;
  std::size_t redundant_ = 0;
  DecoderStats stats_;
};

}  // namespace icd::codec
