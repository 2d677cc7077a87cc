// Equivalence pin for the flat-arena solver rewrite: the production
// PeelingDecoder (degree-counter + XOR-accumulator substitution,
// dense/hash known stores) must match the retained list-based
// ReferencePeelingDecoder bit-for-bit on every observable — return
// values, recovery-log order, recovered values, buffered and redundant
// counters — across randomized scripted op sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "codec/peeling.hpp"
#include "codec/solver_reference.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace icd {
namespace {

template <typename Key>
void expect_same_state(const codec::PeelingDecoder<Key>& solver,
                       const codec::ReferencePeelingDecoder<Key>& reference,
                       const std::vector<Key>& universe, int trial,
                       std::size_t op) {
  ASSERT_EQ(solver.known_count(), reference.known_count())
      << "trial " << trial << " op " << op;
  ASSERT_EQ(solver.buffered_count(), reference.buffered_count())
      << "trial " << trial << " op " << op;
  ASSERT_EQ(solver.redundant_count(), reference.redundant_count())
      << "trial " << trial << " op " << op;
  ASSERT_EQ(solver.recovery_log(), reference.recovery_log())
      << "trial " << trial << " op " << op;
  for (const Key& key : universe) {
    ASSERT_EQ(solver.is_known(key), reference.is_known(key))
        << "trial " << trial << " op " << op << " key " << key;
    if (solver.is_known(key)) {
      ASSERT_EQ(solver.value(key), reference.value(key))
          << "trial " << trial << " op " << op << " key " << key;
    } else if constexpr (!std::is_same_v<Key, std::uint32_t>) {
      ASSERT_FALSE(solver.slot(key).has_value())
          << "trial " << trial << " op " << op << " key " << key;
    }
  }
  // Sparse keys: a key's slot is its index in the recovery log, and the
  // slot names the same value as the key.
  if constexpr (!std::is_same_v<Key, std::uint32_t>) {
    const auto& log = solver.recovery_log();
    for (std::uint32_t k = 0; k < log.size(); ++k) {
      ASSERT_EQ(solver.slot(log[k]), k)
          << "trial " << trial << " op " << op << " key " << log[k];
      ASSERT_EQ(solver.slot_value(k), solver.value(log[k]))
          << "trial " << trial << " op " << op << " key " << log[k];
    }
  }
}

/// How run_scripted_trials scripts a trial: the trial count, the op count
/// (min_ops plus a draw below extra_ops), the percentage of ops that
/// release solver state, and how often the whole state is compared (every
/// op by default; always around a release and at the end of a trial).
struct ScriptShape {
  int trials = 40;
  std::size_t min_ops = 30;
  std::size_t extra_ops = 60;
  std::uint64_t release_percent = 10;
  std::size_t check_every = 1;
};

/// Peak sizes one scripted run reached, at the points it compared state.
struct ScriptPeaks {
  std::size_t known = 0;
  std::size_t waiting = 0;
};

/// Random add/mark_known/release scripts over a small key universe, with
/// duplicate keys inside equations and payloads derived from per-key truth
/// values so recovered bytes are checkable.
template <typename Key>
void run_scripted_trials(const std::vector<Key>& universe, std::uint64_t seed,
                         ScriptShape shape = {},
                         ScriptPeaks* peaks_out = nullptr) {
  util::Xoshiro256 rng(seed);
  const std::size_t payload_size = 6;
  ScriptPeaks peaks;
  for (int trial = 0; trial < shape.trials; ++trial) {
    std::vector<std::vector<std::uint8_t>> truth(universe.size());
    for (auto& value : truth) {
      value.resize(payload_size);
      for (auto& byte : value) byte = static_cast<std::uint8_t>(rng());
    }

    codec::PeelingDecoder<Key> solver;
    codec::ReferencePeelingDecoder<Key> reference;
    const auto check = [&](std::size_t op) {
      expect_same_state(solver, reference, universe, trial, op);
      peaks.known = std::max(peaks.known, solver.known_count());
      peaks.waiting = std::max(peaks.waiting, reference.waiting_count());
    };
    const std::size_t ops = shape.min_ops + rng.next_below(shape.extra_ops);
    for (std::size_t op = 0; op < ops; ++op) {
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 70) {
        // Equation with keys drawn *with replacement*: duplicates cancel.
        const std::size_t degree = 1 + rng.next_below(5);
        std::vector<Key> keys;
        std::vector<std::uint8_t> payload(payload_size, 0);
        for (std::size_t d = 0; d < degree; ++d) {
          const std::size_t pick = rng.next_below(universe.size());
          keys.push_back(universe[pick]);
          for (std::size_t b = 0; b < payload_size; ++b) {
            payload[b] ^= truth[pick][b];
          }
        }
        bool got, want;
        if (rng.next_below(2) == 0) {
          got = solver.add_equation(keys, payload);
          want = reference.add_equation(keys, payload);
        } else {
          got = solver.add_equation(std::span<const Key>(keys),
                                    std::span<const std::uint8_t>(payload));
          want = reference.add_equation(std::span<const Key>(keys),
                                        std::span<const std::uint8_t>(payload));
        }
        ASSERT_EQ(got, want) << "trial " << trial << " op " << op;
      } else if (kind < 100 - shape.release_percent) {
        const std::size_t pick = rng.next_below(universe.size());
        const bool got = solver.mark_known(universe[pick], truth[pick]);
        const bool want = reference.mark_known(universe[pick], truth[pick]);
        ASSERT_EQ(got, want) << "trial " << trial << " op " << op;
      } else {
        check(op);
        solver.release_solver_state();
        reference.release_solver_state();
        check(op);
        continue;
      }
      if ((op + 1) % shape.check_every == 0 || op + 1 == ops) check(op);
    }
    // Recovered values are the truth (payloads were consistent).
    for (std::size_t k = 0; k < universe.size(); ++k) {
      if (solver.is_known(universe[k])) {
        ASSERT_EQ(solver.value(universe[k]), truth[k]) << "trial " << trial;
      }
    }
    // Stats invariants on the production solver.
    ASSERT_EQ(solver.stats().recovered, solver.known_count());
    ASSERT_EQ(solver.stats().redundant, solver.redundant_count());
  }
  if (peaks_out != nullptr) *peaks_out = peaks;
}

TEST(SolverProperty, DenseBlockKeysMatchReference) {
  std::vector<std::uint32_t> universe(24);
  for (std::uint32_t i = 0; i < universe.size(); ++i) universe[i] = i;
  run_scripted_trials(universe, 0xD15C0);
}

TEST(SolverProperty, SparseRecodeKeysMatchReference) {
  // Recode-level 64-bit symbol ids: exercises the hash known store and
  // hash incidence index rather than the dense specializations.
  util::Xoshiro256 rng(0xBEEF);
  std::vector<std::uint64_t> universe(24);
  for (auto& id : universe) id = rng();
  run_scripted_trials(universe, 0xF00D);
}

/// Symbol ids as the engine lays them out: each origin stream counts up
/// from a hashed start (Encoder::take_next_id), here 64 runs of 64 ids.
/// Beside them, the extreme ids 0 and UINT64_MAX, and a run of ids equal
/// modulo 2^20, which agree in every low bit a weak mixer would keep.
std::vector<std::uint64_t> engine_laid_out_ids() {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t run = 0; run < 64; ++run) {
    const std::uint64_t start = util::hash64(run, 0x5eedf00dULL);
    for (std::uint64_t i = 0; i < 64; ++i) ids.push_back(start + i);
  }
  ids.push_back(0);
  ids.push_back(UINT64_MAX);
  for (std::uint64_t i = 1; i <= 64; ++i) ids.push_back(0xabcdeULL + (i << 20));
  return ids;
}

TEST(SolverProperty, EngineLaidOutRecodeKeysMatchReferenceAtScale) {
  const std::vector<std::uint64_t> universe = engine_laid_out_ids();
  std::vector<std::uint64_t> sorted = universe;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  // Releases are rare here, so equations pile up between them. Thousands
  // of ops grow both probe tables from their first 8 cells many times
  // over (at 3/4 load they grow for the 7th, 13th, 25th, 49th... key);
  // the peaks below check that they did.
  ScriptPeaks peaks;
  run_scripted_trials(universe, 0x5CA1E,
                      {.trials = 3, .min_ops = 6000, .extra_ops = 2000,
                       .release_percent = 1, .check_every = 64},
                      &peaks);
  EXPECT_GT(peaks.known, 1000u);
  EXPECT_GT(peaks.waiting, 200u);
}

TEST(SolverProperty, ProbeTableMatchesStdMapOverEngineLaidOutIds) {
  // The solver reaches the waiting index's erase only when a waiting key
  // is recovered, and mostly on keys that sit in their home cell. Here
  // every op is checked against std::unordered_map, a quarter of the ops
  // erase, and inserts outpace erases 2:1, so the table holds about 2/3
  // of the ids and runs near its 3/4 load bound: entries that probed past
  // an erased cell must be shifted back to stay findable.
  using Table = codec::detail::ProbeTable<std::uint64_t, std::uint32_t,
                                          codec::detail::kSolverNil>;
  const std::vector<std::uint64_t> ids = engine_laid_out_ids();
  util::Xoshiro256 rng(0x7AB1E);
  Table table;
  std::unordered_map<std::uint64_t, std::uint32_t> truth;
  for (std::uint32_t op = 0; op < 200000; ++op) {
    const std::uint64_t id = ids[rng.next_below(ids.size())];
    const std::uint64_t kind = rng.next_below(4);
    if (kind < 2) {
      const auto [value, inserted] = table.try_emplace(id, op);
      const auto [it, want_inserted] = truth.try_emplace(id, op);
      ASSERT_EQ(inserted, want_inserted) << "op " << op;
      ASSERT_EQ(*value, it->second) << "op " << op;
    } else if (kind == 2) {
      const auto it = truth.find(id);
      const std::uint32_t want =
          it == truth.end() ? codec::detail::kSolverNil : it->second;
      if (it != truth.end()) truth.erase(it);
      ASSERT_EQ(table.take(id), want) << "op " << op;
    } else {
      const std::uint32_t* value = table.find(id);
      const auto it = truth.find(id);
      ASSERT_EQ(value != nullptr, it != truth.end()) << "op " << op;
      if (value != nullptr) {
        ASSERT_EQ(*value, it->second) << "op " << op;
      }
    }
  }
  // Every held id is still findable after the churn.
  for (const std::uint64_t id : ids) {
    const std::uint32_t* value = table.find(id);
    const auto it = truth.find(id);
    ASSERT_EQ(value != nullptr, it != truth.end()) << "id " << id;
    if (value != nullptr) {
      ASSERT_EQ(*value, it->second) << "id " << id;
    }
  }
  table.clear();
  EXPECT_EQ(table.memory_bytes(), 0u);
  EXPECT_EQ(table.find(ids[0]), nullptr);
}

TEST(SolverProperty, SignedTestKeysMatchReference) {
  // codec_test drives PeelingDecoder<int>; keep that path pinned too.
  std::vector<int> universe(16);
  for (int i = 0; i < static_cast<int>(universe.size()); ++i) {
    universe[static_cast<std::size_t>(i)] = i * 3 - 8;
  }
  run_scripted_trials(universe, 0xCAFE);
}

TEST(SolverProperty, SubstitutionRetiresAnEquationIntoItsLastKey) {
  codec::PeelingDecoder<std::uint32_t> solver;
  solver.add_equation(std::vector<std::uint32_t>{1, 2, 3},
                      std::vector<std::uint8_t>{7});
  solver.add_equation(std::vector<std::uint32_t>{2, 4},
                      std::vector<std::uint8_t>{9});
  ASSERT_EQ(solver.buffered_count(), 2u);
  // Recover 2: both equations substitute; {2, 4} retires by recovering 4.
  solver.mark_known(2u, std::vector<std::uint8_t>{1});
  EXPECT_EQ(solver.buffered_count(), 1u);
  EXPECT_TRUE(solver.is_known(4u));
  EXPECT_EQ(solver.value(4u), (std::vector<std::uint8_t>{8}));
}

}  // namespace
}  // namespace icd
