#pragma once

#include <cstdint>

/// Operation counters for the peeling solvers, aggregated per decoder and
/// surfaced through core::SessionResult so the delivery engines and the
/// BENCH_codec substitution lane can report solver work without
/// instrumenting hot loops twice.
namespace icd::codec {

struct DecoderStats {
  /// add_equation calls (one per received symbol reaching the solver).
  std::uint64_t equations_added = 0;
  /// (key, equation) incidences processed by the substitution rule — the
  /// unit the flat-arena peeler makes O(1); the substitution-throughput
  /// bench lane divides these by wall time.
  std::uint64_t substitutions = 0;
  /// Keys recovered (seeded mark_known calls included).
  std::uint64_t recovered = 0;
  /// Equations that arrived fully redundant.
  std::uint64_t redundant = 0;

  DecoderStats& operator+=(const DecoderStats& other) {
    equations_added += other.equations_added;
    substitutions += other.substitutions;
    recovered += other.recovered;
    redundant += other.redundant;
    return *this;
  }

  friend DecoderStats operator+(DecoderStats lhs, const DecoderStats& rhs) {
    lhs += rhs;
    return lhs;
  }

  bool operator==(const DecoderStats&) const = default;
};

}  // namespace icd::codec
