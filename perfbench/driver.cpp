// perfbench: the repository benchmark driver.
//
//   perfbench --workload swarm|bulk|churn --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Generates the workload's deliveries from the seed, runs one untimed
// warm-up round (every delivery once; it pays the process's cold start and
// fixes each delivery's reference trajectory), then repeats timed rounds,
// calibrating the machine's speed between deliveries (calibrate.hpp),
// until S seconds of rounds have passed. Every delivery of every round is
// checked: each peer's content against the generated content, and the
// whole trajectory against the warm-up's. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (see
// README.md). The exit status is nonzero when a peer's content mismatches,
// a surviving peer is left without content, or a trajectory diverges.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return known_workload(args.workload);
}

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One round: every delivery of the workload once.
struct Round {
  double setup_s = 0.0;  // summed over the round's deliveries
  double run_s = 0.0;
  double verified_bytes = 0.0;
  /// Mean machine slowdown over the calibrations taken before each
  /// delivery and after the last (1 when uncalibrated).
  double slowdown = 1.0;
  std::vector<Outcome> outcomes;  // one per delivery
};

/// Runs one round. Set-up (build_instance) and run (run_until to
/// completion) are timed per delivery; calibration, harvesting,
/// verification, counter reads and teardown are not. `tracer` drives
/// traced deliveries; `counters` receives untraced deliveries' engine
/// counters.
Round run_round(const Workload& workload, Calibrator* calibrator,
                StepTracer* tracer, LayerReport* counters) {
  Round round;
  std::vector<double> slowdowns;
  for (const Inputs& inputs : workload.deliveries) {
    if (calibrator != nullptr) slowdowns.push_back(calibrator->slowdown());
    const auto t0 = Clock::now();
    Instance instance = build_instance(inputs);
    const auto t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->drive(instance);
    } else {
      instance.engine->run_until(instance.max_ticks);
    }
    const auto t2 = Clock::now();
    round.setup_s += seconds_between(t0, t1);
    round.run_s += seconds_between(t1, t2);
    round.outcomes.push_back(harvest(instance, inputs));
    round.verified_bytes +=
        static_cast<double>(round.outcomes.back().verified) *
        static_cast<double>(inputs.content.size());
    if (counters != nullptr) {
      counters->add_counters(instance, seconds_between(t1, t2));
    }
  }
  if (calibrator != nullptr) {
    slowdowns.push_back(calibrator->slowdown());
    round.slowdown = std::accumulate(slowdowns.begin(), slowdowns.end(), 0.0) /
                     static_cast<double>(slowdowns.size());
  }
  if (counters != nullptr) counters->end_round();
  return round;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool diverged = false;

  void add(const Round& round, const Round& reference) {
    for (std::size_t d = 0; d < round.outcomes.size(); ++d) {
      const Outcome& o = round.outcomes[d];
      attempted += o.attempted;
      failed += o.attempted - o.verified;
      diverged = diverged || !o.same_trajectory(reference.outcomes[d]);
    }
  }
};

std::string result_line(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  return json;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Trajectory metrics pooled over the reference round's deliveries.
struct Pooled {
  std::vector<std::uint64_t> completion_ticks;  // ascending
  double wire_bytes = 0.0;
  double delivered_bytes = 0.0;
  std::size_t attempted = 0;
  std::size_t verified = 0;
};

Pooled pool_outcomes(const Workload& workload, const Round& reference) {
  Pooled pooled;
  for (std::size_t d = 0; d < reference.outcomes.size(); ++d) {
    const Outcome& o = reference.outcomes[d];
    pooled.completion_ticks.insert(pooled.completion_ticks.end(),
                                   o.completion_ticks.begin(),
                                   o.completion_ticks.end());
    pooled.wire_bytes +=
        static_cast<double>(o.totals.control_bytes + o.totals.data_bytes);
    pooled.delivered_bytes +=
        static_cast<double>(o.verified) *
        static_cast<double>(workload.deliveries[d].content.size());
    pooled.attempted += o.attempted;
    pooled.verified += o.verified;
  }
  std::sort(pooled.completion_ticks.begin(), pooled.completion_ticks.end());
  return pooled;
}

int run(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed);
  LayerReport layers(workload);

  // Cold start: the first round in a process pays the process-wide
  // permutation-family build and first-touch page faults. Users of a
  // long-lived engine pay it once, so the timed rounds follow this
  // untimed warm-up; the traced run reports the cold cost as proc.cold_*.
  const ProcSample cold_begin = ProcSample::now();
  const Round reference = run_round(workload, nullptr, nullptr, nullptr);
  const ProcSample cold_cost = ProcSample::now() - cold_begin;
  layers.note_cold(reference.setup_s, reference.run_s, cold_cost,
                   reference.outcomes.front().end_tick);
  Tally tally;
  tally.add(reference, reference);

  // Each round's times are scaled to the reference machine's speed by the
  // calibrations taken between its deliveries.
  Calibrator calibrator;
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::vector<double> raw_run_s;
  std::vector<double> goodput;
  std::vector<double> raw_goodput;
  std::vector<double> traced_goodput;
  std::vector<double> slowdown;
  const auto start = Clock::now();
  std::size_t rounds = 0;
  // At least three timed untraced rounds, so every median has a middle,
  // and two traced ones in a traced run.
  while (setup_s.size() < 3 || (args.trace && traced_goodput.size() < 2) ||
         seconds_between(start, Clock::now()) < args.seconds) {
    // The traced run alternates untraced and traced rounds; the untraced
    // ones give the counters and the baseline for trace.overhead_frac.
    const bool traced = args.trace && rounds % 2 == 1;
    StepTracer tracer(layers);
    const Round round =
        run_round(workload, &calibrator, traced ? &tracer : nullptr,
                  args.trace && !traced ? &layers : nullptr);
    tally.add(round, reference);
    const double mbps = round.verified_bytes / round.run_s / 1e6;
    const double scale =
        std::pow(round.slowdown, workload.slowdown_exponent);
    if (traced) {
      traced_goodput.push_back(mbps * scale);
    } else {
      setup_s.push_back(round.setup_s / scale);
      raw_setup_s.push_back(round.setup_s);
      raw_run_s.push_back(round.run_s);
      goodput.push_back(mbps * scale);
      raw_goodput.push_back(mbps);
      slowdown.push_back(round.slowdown);
    }
    ++rounds;
  }

  const Pooled pooled = pool_outcomes(workload, reference);
  const bool correct = tally.failed == 0 && !tally.diverged;
  const std::uint64_t p50 = percentile(pooled.completion_ticks, 0.5);
  const std::uint64_t p90 = percentile(pooled.completion_ticks, 0.9);
  const std::size_t samples = pooled.completion_ticks.size();
  const auto beyond_p90 =
      samples - static_cast<std::size_t>(
                    std::ceil(0.9 * static_cast<double>(samples)));

  std::printf("workload %s seed %llu: %zu deliveries x %zu timed rounds; "
              "%zu peers per round, %zu verified; trajectories %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload.deliveries.size(), rounds, pooled.attempted,
              pooled.verified, tally.diverged ? "DIVERGED" : "identical");
  std::printf("completion ticks p50 %llu p90 %llu over %zu peers "
              "(%zu beyond p90)\n",
              static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p90), samples, beyond_p90);
  std::printf("goodput MB/s raw median %.4g, machine slowdown median %.4g, "
              "scaled median %.4g\n",
              median(raw_goodput), median(slowdown), median(goodput));

  std::vector<Metric> metrics;
  if (args.trace) {
    layers.time_kernels();
    layers.finish(median(goodput), median(traced_goodput),
                  median(raw_setup_s), median(raw_run_s), samples);
    metrics = layers.metrics();
    if (!args.trace_out.empty()) layers.write_spans(args.trace_out);
  } else {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"goodput_MBps", median(goodput), "MB/s"},
        {"completion_ticks_p50", static_cast<double>(p50), "ticks"},
        {"completion_ticks_p90", static_cast<double>(p90), "ticks"},
        {"wire_bytes_per_content_byte",
         pooled.wire_bytes / pooled.delivered_bytes, "ratio"},
        {"peak_rss_MB", peak_rss_mb(), "MB"},
        {"verified_frac",
         static_cast<double>(pooled.verified) /
             static_cast<double>(std::max<std::size_t>(1, pooled.attempted)),
         "ratio"},
    };
  }
  std::printf("%s\n", result_line(correct, tally, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload swarm|bulk|churn --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
