#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "codec/block_source.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/admission.hpp"
#include "core/peer.hpp"
#include "core/session_plan.hpp"
#include "wire/transport.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Median over `batches` of the nanoseconds per op of `batch()`, which
/// performs and returns its op count.
template <typename Batch>
double ns_per_op(std::size_t batches, Batch&& batch) {
  std::vector<double> samples;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    const std::size_t ops = batch();
    const std::int64_t t1 = now_ns();
    if (ops > 0) {
      samples.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(ops));
    }
  }
  return median(samples);
}

double frac(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

ProcSample ProcSample::now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(usage.ru_utime) + secs(usage.ru_stime),
          static_cast<double>(usage.ru_minflt)};
}

LayerReport::LayerReport(const Workload& workload)
    : workload_(workload), epoch_ns_(now_ns()) {}

int LayerReport::open_span(const char* name, int parent) {
  spans_.push_back(Span{name, now_ns() - epoch_ns_, 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void LayerReport::close_span(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns() - epoch_ns_;
}

void LayerReport::note_cold(double setup_s, double run_s,
                            const ProcSample& cost, std::uint64_t end_tick) {
  cold_setup_s_ = setup_s;
  cold_run_s_ = run_s;
  cold_cost_ = cost;
  sample_tick_ = end_tick / 3;
  audit_every_ = std::max<std::uint64_t>(1, end_tick / kAuditsPerDelivery);
}

void LayerReport::add_counters(const Instance& finished, double run_s) {
  const icd::core::ShardedDelivery& engine = *finished.engine;
  Counters& c = round_;
  const double skipped = static_cast<double>(engine.ticks_skipped());
  c.ticks_executed += static_cast<double>(engine.ticks()) - skipped;
  c.ticks_skipped += skipped;
  c.events_processed += static_cast<double>(engine.events_processed());
  const auto& plan = engine.planner_stats();
  c.queue_ops += static_cast<double>(plan.ops());
  c.queue_pushes += static_cast<double>(plan.pushes);
  c.queue_stale += static_cast<double>(plan.stale_skipped);
  c.rebuilds += static_cast<double>(plan.full_rebuilds);
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    const icd::core::SessionResult result = engine.session_result(p);
    c.equations += static_cast<double>(result.decoder_stats.equations_added);
    c.substitutions +=
        static_cast<double>(result.decoder_stats.substitutions);
    c.recovered += static_cast<double>(result.decoder_stats.recovered);
    c.redundant += static_cast<double>(result.decoder_stats.redundant);
    for (const auto& failure : result.failed_peers) {
      c.failed_sessions += 1;
      (failure.reason == icd::core::FailedPeer::Reason::kLivenessTimeout
           ? c.liveness_timeouts
           : c.handshake_exhausted) += 1;
    }
  }
  const auto totals = engine.link_totals();
  c.control_bytes += static_cast<double>(totals.control_bytes);
  c.control_frames += static_cast<double>(totals.control_frames);
  c.data_bytes += static_cast<double>(totals.data_bytes);
  c.data_frames += static_cast<double>(totals.data_frames);
  c.frames_refused += static_cast<double>(totals.frames_refused);

  const std::vector<std::uint64_t> busy = engine.shard_busy_ns();
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (const std::uint64_t ns : busy) {
    busy_max = std::max(busy_max, static_cast<double>(ns) / 1e9);
    busy_sum += static_cast<double>(ns) / 1e9;
  }
  c.pool_wall_s += static_cast<double>(engine.parallel_wall_ns()) / 1e9;
  c.pool_busy_max_s += busy_max;
  if (!busy.empty()) {
    c.pool_busy_mean_s += busy_sum / static_cast<double>(busy.size());
    c.pooled = true;
  }
  c.run_s += run_s;
}

void LayerReport::end_round() {
  const Counters& c = round_;
  pool_wall_s_.push_back(c.pool_wall_s);
  pool_busy_max_s_.push_back(c.pool_busy_max_s);
  // Inline (one-shard) deliveries have no pool: no barrier wait, no
  // imbalance, and the coordinator is the whole run.
  pool_barrier_frac_.push_back(
      c.pooled ? 1.0 - frac(c.pool_busy_mean_s, c.pool_wall_s) : 0.0);
  pool_coordinator_s_.push_back(c.run_s - c.pool_wall_s);
  pool_imbalance_.push_back(
      c.pooled ? frac(c.pool_busy_max_s, c.pool_busy_mean_s) : 1.0);
  counted_ = c;
  round_ = Counters{};
}

void StepTracer::drive(Instance& instance) {
  icd::core::ShardedDelivery& engine = *instance.engine;
  LayerReport& r = report_;
  const int root = r.open_span("delivery", -1);
  bool sampled = false;
  std::uint64_t next_audit = 0;
  for (;;) {
    const std::uint64_t deadline = std::min<std::uint64_t>(
        instance.max_ticks, engine.ticks() + r.workload_.step_ticks);
    const int step = r.open_span("core.engine.run_until", root);
    const std::int64_t t0 = now_ns();
    const bool done = engine.run_until(deadline);
    const std::int64_t t1 = now_ns();
    r.close_span(step);
    r.step_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);

    if (engine.ticks() >= next_audit) {
      next_audit = engine.ticks() + r.audit_every_;
      const int audit_span = r.open_span("core.memory_audit", root);
      const icd::core::MemoryAudit audit = engine.memory_audit();
      r.close_span(audit_span);
      if (audit.peers > 0) {
        const double peers = static_cast<double>(audit.peers);
        r.peak_decoder_ = std::max(
            r.peak_decoder_, static_cast<double>(audit.decoder_bytes) / peers);
        r.peak_endpoint_ =
            std::max(r.peak_endpoint_,
                     static_cast<double>(audit.endpoint_bytes) / peers);
        r.peak_link_ = std::max(r.peak_link_,
                                static_cast<double>(audit.link_bytes) / peers);
      }
    }
    if (!sampled && engine.ticks() >= r.sample_tick_) {
      sample_live_peers(instance, root);
      sampled = true;
    }
    // run_until's own "all done" check waits for scheduled joiners, but
    // its return value at a step deadline does not, so a step that ends
    // with every present peer complete must not end the delivery while
    // joiners are still to come.
    const bool all_joined = engine.peer_count() == instance.join_tick.size();
    if ((done && all_joined) || engine.ticks() >= instance.max_ticks) break;
  }
  r.close_span(root);
}

void StepTracer::sample_live_peers(const Instance& instance, int parent) {
  const icd::core::ShardedDelivery& engine = *instance.engine;
  LayerReport& r = report_;
  const std::size_t n = engine.peer_count();
  if (n < 2) return;
  // Up to 64 receivers spread over the id range, each ranking a candidate
  // pool of the workload's own admission size.
  const std::size_t receivers = std::min<std::size_t>(64, n);
  const std::size_t pool = std::min(r.workload_.admission_candidates, n - 1);
  const std::size_t stride = (n - 1) / pool;  // distinct ids, never rx
  const icd::core::AdmissionPolicy policy;
  std::vector<icd::core::CandidateSender> candidates;

  const int admission = r.open_span("core.admission.select_senders", parent);
  std::int64_t select_ns = 0;
  for (std::size_t i = 0; i < receivers; ++i) {
    const std::size_t rx = i * n / receivers;
    candidates.clear();
    for (std::size_t c = 0; c < pool; ++c) {
      const std::size_t id = (rx + 1 + c * stride) % n;
      const icd::core::Peer& peer = engine.peer(id);
      candidates.push_back({id, &peer.sketch(), peer.symbol_count()});
    }
    const icd::core::Peer& receiver = engine.peer(rx);
    const std::int64_t t0 = now_ns();
    const auto chosen = icd::core::select_senders(
        receiver.sketch(), receiver.symbol_count(), candidates, policy, 2);
    select_ns += now_ns() - t0;
    r.sink_ += chosen.size();
  }
  r.close_span(admission);
  r.select_us_.push_back(static_cast<double>(select_ns) / 1e3 /
                         static_cast<double>(receivers));

  const int sketch = r.open_span("sketch.resemblance", parent);
  const std::size_t pairs = 4096;
  double acc = 0.0;
  const std::int64_t s0 = now_ns();
  for (std::size_t i = 0; i < pairs; ++i) {
    acc += icd::sketch::MinwiseSketch::resemblance(
        engine.peer(i % n).sketch(), engine.peer((i * 7 + 1) % n).sketch());
  }
  const std::int64_t s1 = now_ns();
  r.close_span(sketch);
  r.sink_ += static_cast<std::uint64_t>(acc);
  r.estimate_ns_.push_back(static_cast<double>(s1 - s0) /
                           static_cast<double>(pairs));

  const int bloom = r.open_span("filter.bloom_summary", parent);
  std::int64_t bloom_ns = 0;
  std::size_t built = 0;
  for (std::size_t i = 0; i < receivers; ++i) {
    const icd::core::Peer& peer = engine.peer(i * n / receivers);
    if (peer.symbol_count() == 0) continue;
    const std::int64_t t0 = now_ns();
    const auto filter = peer.bloom_summary();
    bloom_ns += now_ns() - t0;
    r.sink_ += filter.bit_count();
    ++built;
  }
  r.close_span(bloom);
  if (built > 0) {
    r.bloom_us_.push_back(static_cast<double>(bloom_ns) / 1e3 /
                          static_cast<double>(built));
  }
}

void LayerReport::time_kernels() {
  namespace codec = icd::codec;
  const Inputs& inputs = workload_.deliveries.front();
  const std::size_t block = workload_.block_size;
  const codec::BlockSource source(inputs.content, block);
  const codec::DegreeDistribution dist =
      icd::core::delivery_distribution(inputs.content.size(), block);
  codec::Encoder encoder(source, dist, inputs.session_seed);
  const std::size_t blocks = source.block_count();
  const int root = open_span("kernels", -1);

  const int encode = open_span("codec.encode", root);
  codec::EncodedSymbol symbol;
  std::uint64_t next_id = 0;
  const double encode_ns = ns_per_op(7, [&] {
    const std::size_t ops = std::max<std::size_t>(2048, 4 * blocks);
    for (std::size_t i = 0; i < ops; ++i) {
      encoder.encode_into(symbol, next_id++);
    }
    sink_ += symbol.payload[0];
    return ops;
  });
  close_span(encode);

  // A stream long enough to decode the content, reused by every peel batch.
  std::vector<codec::EncodedSymbol> stream;
  {
    codec::Decoder probe(encoder.parameters(), dist);
    for (std::uint64_t id = 0; !probe.complete(); ++id) {
      stream.push_back(encoder.encode(id));
      probe.add_symbol(stream.back());
    }
  }
  const int peel = open_span("codec.peel", root);
  const double peel_ns = ns_per_op(7, [&] {
    // Whole decodes, repeated so tiny contents still time 2048+ symbols.
    std::size_t ops = 0;
    while (ops < 2048) {
      codec::Decoder decoder(encoder.parameters(), dist);
      for (const auto& s : stream) decoder.add_symbol(s);
      sink_ += decoder.recovered_count();
      ops += stream.size();
    }
    return ops;
  });
  close_span(peel);

  icd::core::Peer holder("kernel", encoder.parameters(), dist);
  for (const auto& s : stream) holder.receive_encoded(s);
  const int recode = open_span("codec.recode", root);
  icd::util::Xoshiro256 rng(inputs.session_seed);
  codec::RecodedSymbol recoded;
  const double recode_ns = ns_per_op(7, [&] {
    const std::size_t ops = 2048;
    for (std::size_t i = 0; i < ops; ++i) {
      holder.recode_into(recoded, std::min<std::size_t>(dist.sample(rng), 50),
                         rng);
    }
    sink_ += recoded.payload[0];
    return ops;
  });
  close_span(recode);

  // Frames over a perfect link with the workload's MTU, data and control
  // frames interleaved in the workload's measured frame mix.
  icd::wire::ChannelConfig config;
  config.mtu = workload_.mtu;
  icd::wire::ChannelLink link(config);
  const codec::EncodedSymbolView view(symbol);
  const icd::wire::Message control =
      icd::wire::Hello{encoder.parameters().block_count, inputs.session_seed,
                       blocks};
  const std::size_t batch = 256;
  const double control_share =
      frac(counted_.control_frames,
           counted_.control_frames + counted_.data_frames);
  const auto control_every = static_cast<std::size_t>(
      control_share > 0.0 ? std::max(1.0, std::round(1.0 / control_share))
                          : batch + 1.0);
  std::vector<double> send_ns;
  std::vector<double> receive_ns;
  const int frames = open_span("wire.frames", root);
  for (int b = 0; b < 41; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) {
      const bool ok = i % control_every == control_every - 1
                          ? link.a().send(control)
                          : link.a().send(view);
      if (!ok) throw std::runtime_error("kernel frame refused by the link");
    }
    const std::int64_t t1 = now_ns();
    link.flush();
    std::size_t received = 0;
    const std::int64_t t2 = now_ns();
    while (link.b().receive_frame()) ++received;
    const std::int64_t t3 = now_ns();
    if (received != batch) throw std::runtime_error("kernel frames lost");
    if (b == 0) continue;  // first batch fills the buffer pool
    send_ns.push_back(static_cast<double>(t1 - t0) / batch);
    receive_ns.push_back(static_cast<double>(t3 - t2) / batch);
  }
  close_span(frames);
  close_span(root);

  kernels_ = {
      {"codec.encode_ns_per_symbol", encode_ns, "ns"},
      {"codec.peel_ns_per_symbol", peel_ns, "ns"},
      {"codec.recode_ns_per_symbol", recode_ns, "ns"},
      {"wire.frame_send_ns", median(send_ns), "ns"},
      {"wire.frame_receive_ns", median(receive_ns), "ns"},
  };
}

void LayerReport::finish(double untraced_goodput, double traced_goodput,
                         double warm_setup_s, double warm_run_s,
                         std::size_t completion_samples) {
  const Counters& c = counted_;
  const ProcSample proc = ProcSample::now();
  metrics_ = {
      {"core.engine.step_ms_p50", percentile_of(step_ms_, 0.5), "ms"},
      {"core.engine.step_ms_p99", percentile_of(step_ms_, 0.99), "ms"},
      {"core.engine.step_samples", static_cast<double>(step_ms_.size()),
       "count"},
      {"core.completion.samples", static_cast<double>(completion_samples),
       "count"},
      {"core.loop.ticks_executed", c.ticks_executed, "count"},
      {"core.loop.ticks_skipped", c.ticks_skipped, "count"},
      {"core.loop.events_processed", c.events_processed, "count"},
      {"core.plan.queue_ops_per_tick", frac(c.queue_ops, c.ticks_executed),
       "ops/tick"},
      {"core.plan.stale_frac", frac(c.queue_stale, c.queue_pushes), "ratio"},
      {"core.plan.full_rebuilds", c.rebuilds, "count"},
      {"core.admission.select_us", median(select_us_), "us"},
      {"sketch.estimate_ns", median(estimate_ns_), "ns"},
      {"util.shard_pool.parallel_wall_s", median(pool_wall_s_), "s"},
      {"util.shard_pool.busy_s_max", median(pool_busy_max_s_), "s"},
      {"util.shard_pool.barrier_wait_frac", median(pool_barrier_frac_),
       "ratio"},
      {"util.shard_pool.coordinator_s", median(pool_coordinator_s_), "s"},
      {"util.shard_pool.imbalance", median(pool_imbalance_), "ratio"},
  };
  metrics_.insert(metrics_.end(), kernels_.begin(), kernels_.end());
  const std::vector<Metric> tail = {
      {"codec.equations_added", c.equations, "count"},
      {"codec.substitutions", c.substitutions, "count"},
      {"codec.recovered", c.recovered, "count"},
      {"codec.redundant_frac", frac(c.redundant, c.equations), "ratio"},
      {"wire.control_bytes", c.control_bytes, "B"},
      {"wire.control_frames", c.control_frames, "count"},
      {"wire.data_bytes", c.data_bytes, "B"},
      {"wire.data_frames", c.data_frames, "count"},
      {"wire.frames_refused", c.frames_refused, "count"},
      {"wire.control_byte_frac",
       frac(c.control_bytes, c.control_bytes + c.data_bytes), "ratio"},
      {"filter.bloom_build_us", median(bloom_us_), "us"},
      {"core.endpoint.failed_sessions", c.failed_sessions, "count"},
      {"core.endpoint.liveness_timeouts", c.liveness_timeouts, "count"},
      {"core.endpoint.handshake_exhausted", c.handshake_exhausted, "count"},
      {"core.memory.decoder_bytes_per_peer", peak_decoder_, "B"},
      {"core.memory.endpoint_bytes_per_peer", peak_endpoint_, "B"},
      {"core.memory.link_bytes_per_peer", peak_link_, "B"},
      {"proc.cpu_s", proc.cpu_s, "s"},
      {"proc.minor_faults", proc.minor_faults, "count"},
      {"proc.cold_minor_faults", cold_cost_.minor_faults, "count"},
      {"proc.cold_setup_ratio", frac(cold_setup_s_, warm_setup_s), "ratio"},
      {"proc.cold_run_ratio", frac(cold_run_s_, warm_run_s), "ratio"},
      {"trace.overhead_frac", 1.0 - frac(traced_goodput, untraced_goodput),
       "ratio"},
  };
  metrics_.insert(metrics_.end(), tail.begin(), tail.end());
}

void LayerReport::write_spans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}\n";
  }
}

}  // namespace perfbench
