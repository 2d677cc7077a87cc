#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/permutation.hpp"

namespace icd::util {
class ByteWriter;
}

/// Min-wise sketches (Broder; Section 4 of the paper) — the preferred
/// coarse reconciliation mechanism.
///
/// For each of N pre-agreed random permutations pi_j of the key universe, a
/// peer records min pi_j(S) over its working set S. Two sketches agree at
/// position j with probability exactly
///     r = |A ∩ B| / |A ∪ B|
/// (the *resemblance*), so the fraction of matching positions is an unbiased
/// estimator of r. With 64-bit minima, the default 128 permutations fill the
/// paper's single 1 KB calling-card packet exactly.
namespace icd::sketch {

class MinwiseSketch {
 public:
  /// Number of permutations that fit a 1 KB packet at 8 bytes per minimum.
  static constexpr std::size_t kDefaultPermutations = 128;
  /// Seed that all peers share so their permutation families coincide
  /// ("we assume they are fixed universally off-line").
  static constexpr std::uint64_t kSharedSeed = 0x51e7c4a11c0ffee5ULL;

  /// Sentinel stored at a position before any element has been folded in.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Sketch over a universe of `universe_size` keys with `permutations`
  /// positions. Peers must agree on all three constructor arguments.
  explicit MinwiseSketch(std::uint64_t universe_size,
                         std::size_t permutations = kDefaultPermutations,
                         std::uint64_t seed = kSharedSeed);

  /// Folds one element in: O(#permutations). This is the constant-overhead
  /// incremental update the paper requires of all its summaries.
  void update(std::uint64_t key);

  /// Folds in every key of `keys`.
  void update_all(const std::vector<std::uint64_t>& keys);

  std::size_t permutation_count() const { return minima_.size(); }
  std::uint64_t universe_size() const { return universe_size_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<std::uint64_t>& minima() const { return minima_; }

  /// Heap bytes pinned per sketch. The permutation family is shared
  /// process-wide (util::shared_permutation_family) and deliberately not
  /// charged per peer.
  std::size_t memory_bytes() const {
    return minima_.capacity() * sizeof(std::uint64_t);
  }

  /// Unbiased estimate of |A ∩ B| / |A ∪ B| from two sketches. Positions
  /// never touched on either side are skipped; two empty sketches resemble
  /// each other completely by convention. Admission scores every candidate
  /// sender with this, so it is a branch-free count over the minima
  /// (match_minima_kernel), run at the CPU's width.
  static double resemblance(const MinwiseSketch& a, const MinwiseSketch& b);

  /// Coordinate-wise minimum: the sketch of the union of the two sets
  /// ("the sketch for the union of A_F and B_F is easily found by taking
  /// the coordinate-wise minimum of v(A) and v(B)").
  static MinwiseSketch combine_union(const MinwiseSketch& a,
                                     const MinwiseSketch& b);

  /// Wire form; 16 bytes of header + 8 bytes per minimum, the minima as
  /// one little-endian block. serialize_into appends the same bytes to an
  /// existing writer (e.g. over a pooled frame buffer) so the handshake
  /// path serializes without a scratch vector; serialized_size is the
  /// exact byte count it will append.
  std::vector<std::uint8_t> serialize() const;
  std::size_t serialized_size() const;
  void serialize_into(util::ByteWriter& out) const;
  /// Decodes a received sketch. It reuses the permutation family of a
  /// local sketch with the same (universe, count, seed) and never draws a
  /// new one, so hostile frames cannot grow the process-wide family cache
  /// or cost a family draw each. A sketch of a geometry no local sketch
  /// uses could never pass resemblance's compatibility check anyway: it
  /// is rejected with std::invalid_argument, as are a count of 0 and
  /// bytes left over after the minima.
  static MinwiseSketch deserialize(std::span<const std::uint8_t> bytes);

 private:
  MinwiseSketch(std::uint64_t universe_size, std::uint64_t seed,
                std::shared_ptr<const std::vector<util::LinearPermutation>>
                    permutations);

  void check_compatible(const MinwiseSketch& other) const;

  std::uint64_t universe_size_;
  std::uint64_t seed_;
  /// Shared across every sketch with the same (universe, count, seed) via
  /// util::shared_permutation_family — sketches are copied and deserialized
  /// per handshake, and the family is the expensive immutable part.
  std::shared_ptr<const std::vector<util::LinearPermutation>> permutations_;
  std::vector<std::uint64_t> minima_;
};

/// Position counts over two equally long minima arrays: `equal` counts the
/// positions where a[j] == b[j], `both_empty` those where a[j] == b[j] ==
/// MinwiseSketch::kEmpty. resemblance reads live = n - both_empty and
/// matches = equal - both_empty from them.
struct MinimaMatch {
  std::size_t equal = 0;
  std::size_t both_empty = 0;
};

/// Signature of the position count; `a` and `b` hold `n` minima each.
/// Every variant returns the same integers (sketch_test checks each
/// against the position-by-position loop).
using MatchKernel = MinimaMatch (*)(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n);

/// Portable variant, on every architecture.
MinimaMatch match_minima_portable(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n);

#if defined(__x86_64__)
/// AVX2 variant: compares 4 minima per step. Call it only where
/// __builtin_cpu_supports("avx2") holds.
MinimaMatch match_minima_avx2(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n);
#endif

/// The variant resemblance runs on this CPU, chosen once on first use from
/// the CPU's features, never from build flags.
MatchKernel match_minima_kernel();

/// Converts a resemblance estimate r = |A∩B| / |A∪B| into the containment
/// c = |A∩B| / |B| the recoding strategies need, via inclusion-exclusion:
/// |A∩B| = r (|A| + |B|) / (1 + r). Returns a value clamped to [0, 1].
double containment_from_resemblance(double resemblance, std::size_t size_a,
                                    std::size_t size_b);

/// The reverse conversion, used by tests and by workload generators that
/// target a specific containment.
double resemblance_from_containment(double containment, std::size_t size_a,
                                    std::size_t size_b);

}  // namespace icd::sketch
