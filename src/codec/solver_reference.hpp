#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "codec/symbol.hpp"

/// `ReferencePeelingDecoder`, the list-based solver the flat-arena data
/// plane replaced, kept verbatim as the semantic ground truth: per-equation
/// heap vectors of unknown keys, `std::find`+`erase` substitution, an
/// `unordered_map<Key, vector<eq_id>>` waiting index. The randomized solver
/// property test (tests/solver_property_test.cpp) runs every scripted add /
/// mark_known / release sequence through this and the production
/// `PeelingDecoder`, asserting identical recovery logs, counters, and
/// values; the BENCH_codec substitution lane times the two.
///
/// Nothing on the delivery path instantiates it; it exists so the
/// optimized solver stays pinned bit-for-bit to known-good behavior.
namespace icd::codec {

template <typename Key>
class ReferencePeelingDecoder {
 public:
  ReferencePeelingDecoder() = default;

  bool mark_known(const Key& key, std::vector<std::uint8_t> value) {
    if (known_.contains(key)) return false;
    recover(key, std::move(value));
    drain();
    return true;
  }

  bool add_equation(std::vector<Key> keys, std::vector<std::uint8_t> payload) {
    return add_equation_impl(keys, std::move(payload));
  }

  bool add_equation(std::span<const Key> keys,
                    std::span<const std::uint8_t> payload) {
    return add_equation_impl(
        keys, std::vector<std::uint8_t>(payload.begin(), payload.end()));
  }

  bool is_known(const Key& key) const { return known_.contains(key); }

  const std::vector<std::uint8_t>& value(const Key& key) const {
    const auto it = known_.find(key);
    if (it == known_.end()) {
      throw std::out_of_range("ReferencePeelingDecoder: key not recovered");
    }
    return it->second;
  }

  std::size_t known_count() const { return known_.size(); }
  std::size_t buffered_count() const { return live_equations_; }
  std::size_t redundant_count() const { return redundant_; }
  const std::vector<Key>& recovery_log() const { return log_; }
  /// Distinct unknown keys some buffered equation waits on.
  std::size_t waiting_count() const { return waiting_.size(); }

  void release_solver_state() {
    equations_.clear();
    equations_.shrink_to_fit();
    waiting_.clear();
    waiting_.rehash(0);
    pending_.clear();
    pending_.shrink_to_fit();
    live_equations_ = 0;
  }

 private:
  struct Equation {
    std::vector<Key> unknowns;
    std::vector<std::uint8_t> payload;
    bool retired = false;
  };

  void recover(const Key& key, std::vector<std::uint8_t> value) {
    known_.emplace(key, std::move(value));
    pending_.push_back(key);
    log_.push_back(key);
  }

  bool add_equation_impl(std::span<const Key> keys,
                         std::vector<std::uint8_t> payload) {
    bool sorted_distinct = true;
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
      if (!(keys[i] < keys[i + 1])) {
        sorted_distinct = false;
        break;
      }
    }

    std::vector<Key> unknowns;
    unknowns.reserve(keys.size());
    const auto substitute = [&](const Key& k) {
      const auto it = known_.find(k);
      if (it == known_.end()) {
        unknowns.push_back(k);
      } else {
        xor_into(payload, it->second);
      }
    };
    if (sorted_distinct) {
      for (const Key& k : keys) substitute(k);
    } else {
      std::unordered_map<Key, int> counts;
      for (const Key& k : keys) ++counts[k];
      for (const auto& [k, c] : counts) {
        if (c % 2 == 1) substitute(k);
      }
    }

    if (unknowns.empty()) {
      ++redundant_;
      return false;
    }
    if (unknowns.size() == 1) {
      recover(unknowns.front(), std::move(payload));
      drain();
      return true;
    }

    const std::size_t eq_id = equations_.size();
    for (const Key& k : unknowns) waiting_[k].push_back(eq_id);
    equations_.push_back(Equation{std::move(unknowns), std::move(payload),
                                  /*retired=*/false});
    ++live_equations_;
    return false;
  }

  void drain() {
    while (!pending_.empty()) {
      const Key key = pending_.front();
      pending_.pop_front();
      const auto wit = waiting_.find(key);
      if (wit == waiting_.end()) continue;
      const std::vector<std::size_t> eq_ids = std::move(wit->second);
      waiting_.erase(wit);
      for (const std::size_t eq_id : eq_ids) {
        Equation& eq = equations_[eq_id];
        if (eq.retired) continue;
        auto pos = std::find(eq.unknowns.begin(), eq.unknowns.end(), key);
        if (pos == eq.unknowns.end()) continue;  // already substituted
        eq.unknowns.erase(pos);
        xor_into(eq.payload, known_.at(key));
        if (eq.unknowns.size() == 1) {
          const Key last = eq.unknowns.front();
          eq.retired = true;
          --live_equations_;
          if (!known_.contains(last)) {
            recover(last, std::move(eq.payload));
          }
        } else if (eq.unknowns.empty()) {
          eq.retired = true;
          --live_equations_;
        }
      }
    }
  }

  std::unordered_map<Key, std::vector<std::uint8_t>> known_;
  std::vector<Equation> equations_;
  std::unordered_map<Key, std::vector<std::size_t>> waiting_;  // key -> eq ids
  std::deque<Key> pending_;
  std::vector<Key> log_;
  std::size_t live_equations_ = 0;
  std::size_t redundant_ = 0;
};

}  // namespace icd::codec
