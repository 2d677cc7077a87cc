#pragma once

// Shared helpers for the experiment harnesses. Each bench binary prints the
// rows/series of one table or figure from the paper, in a fixed-width
// format suitable for eyeballing against the original plots, and the perf
// benches additionally emit a machine-readable BENCH_*.json so successive
// PRs can track the throughput/allocation trajectory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "overlay/scenario.hpp"
#include "overlay/sim_config.hpp"
#include "overlay/strategy.hpp"
#include "overlay/transfer.hpp"
#include "util/random.hpp"

namespace icd::bench {

/// Correlation sweep points used by Figures 5-8 (the paper plots x up to
/// the feasibility limit of each scenario; infeasible points clamp and the
/// realized correlation is printed).
inline std::vector<double> correlation_sweep(double max, double step = 0.05) {
  std::vector<double> points;
  for (double c = 0.0; c <= max + 1e-9; c += step) points.push_back(c);
  return points;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_strategy_columns() {
  std::printf("%11s", "corr");
  for (const auto strategy : overlay::kAllStrategies) {
    std::printf("%12s", std::string(overlay::strategy_name(strategy)).c_str());
  }
  std::printf("\n");
}

/// Averages `trials` runs of `run(seed)` (each returning a metric).
template <typename Fn>
double average_over_trials(std::size_t trials, std::uint64_t base_seed,
                           Fn&& run) {
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    total += run(base_seed + 1000003 * t);
  }
  return total / static_cast<double>(trials);
}

/// True when the binary was invoked with --smoke (tiny iteration counts so
/// CI can exercise the bench binaries without paying full measurement
/// time). Numbers produced under smoke are build-health checks, not
/// benchmarks.
inline bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

/// Parses --shards N — the delivery engine's worker-shard count
/// (core::ShardOptions::shards). 1 (no worker pool) when absent or
/// unparsable.
inline std::size_t shards_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "--shards needs a value; using 1\n");
      return 1;
    }
    // strtoul wraps negatives to huge values and stops at the first
    // non-digit; reject both rather than letting ShardPool try to spawn
    // 2^64 threads or silently dropping trailing garbage.
    char* end = nullptr;
    const unsigned long value = std::strtoul(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0' || value == 0 || value > 256) {
      std::fprintf(stderr, "--shards %s not in [1, 256]; using 1\n",
                   argv[i + 1]);
      return 1;
    }
    return static_cast<std::size_t>(value);
  }
  return 1;
}

/// Flat key -> number report written as one JSON object. Keys are emitted
/// in insertion order; values print with enough precision to diff runs.
class JsonReport {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    entries_.emplace_back(key, buf);
  }
  void add(const std::string& key, std::size_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add_string(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }

  /// Writes {"k": v, ...} to `path`; returns false (and warns) on failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", entries_[i].first.c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace icd::bench
