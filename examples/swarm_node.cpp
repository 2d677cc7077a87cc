// One peer process of a real-network swarm — and the simulator's oracle.
//
//   swarm_node --config swarm.cfg --node 2 --out node2.json
//              --ready-file node2.ready --go-file go
//   swarm_node --config swarm.cfg --predict --out predict.json
//
// In node mode the process binds one non-blocking UDP socket per edge half
// it owns, signals readiness, waits for the harness's go-file barrier, and
// drives its protocol endpoints on a wall-clock poll loop until its uploads
// served their quotas and its download finished. In predict mode it runs
// the identical per-edge script over in-process wire::Pipes and reports the
// byte totals a loss-free real run must hit exactly. tools/swarm_harness
// launches N node processes, one predict run, and diffs the two into
// BENCH_swarm.json.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/swarm.hpp"

namespace {

using namespace icd;

/// Tiny flat-JSON writer (examples stay free of bench/ headers).
class JsonOut {
 public:
  void add(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
    fields_.emplace_back(key, buffer);
  }
  void add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add_string(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << "  \"" << fields_[i].first << "\": " << fields_[i].second
          << (i + 1 < fields_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

int run_predict(const core::SwarmSpec& spec, const std::string& out_path) {
  const core::SwarmPrediction prediction = core::predict_swarm(spec);
  JsonOut json;
  json.add_string("mode", "predict");
  json.add_string("strategy",
                  std::string(overlay::strategy_key(spec.strategy)));
  json.add("nodes", spec.nodes);
  json.add("edges", spec.edges.size());
  json.add("all_completed", std::size_t{prediction.all_completed ? 1u : 0u});
  json.add("ticks", prediction.ticks);
  std::size_t control_bytes = 0;
  std::size_t data_bytes = 0;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    const std::string node = "node" + std::to_string(i);
    json.add(node + "_completed",
             std::size_t{prediction.completed[i] ? 1u : 0u});
    json.add(node + "_completion_tick", prediction.completion_tick[i]);
    json.add(node + "_symbols", prediction.final_symbols[i]);
  }
  for (std::size_t e = 0; e < prediction.edges.size(); ++e) {
    const auto& totals = prediction.edges[e];
    const std::string edge = "edge" + std::to_string(e);
    json.add(edge + "_control_bytes", totals.control_bytes);
    json.add(edge + "_control_frames", totals.control_frames);
    json.add(edge + "_data_bytes", totals.data_bytes);
    json.add(edge + "_data_frames", totals.data_frames);
    control_bytes += totals.control_bytes;
    data_bytes += totals.data_bytes;
  }
  json.add("total_control_bytes", control_bytes);
  json.add("total_data_bytes", data_bytes);
  json.add("handshake_retries", prediction.handshake_retries);
  json.add("shaped", std::size_t{spec.shaped() ? 1u : 0u});
  if (!json.write(out_path)) {
    std::fprintf(stderr, "swarm_node: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("predict: %s, %llu ticks, %zu control B, %zu data B -> %s\n",
              prediction.all_completed ? "all completed" : "INCOMPLETE",
              static_cast<unsigned long long>(prediction.ticks),
              control_bytes, data_bytes, out_path.c_str());
  return prediction.all_completed ? 0 : 2;
}

int run_node(const core::SwarmSpec& spec, std::size_t node,
             const std::string& out_path, const std::string& ready_file,
             const std::string& go_file, const std::string& progress_file) {
  const core::SwarmNodeReport report =
      core::run_swarm_node(spec, node, ready_file, go_file, progress_file);
  JsonOut json;
  json.add_string("mode", "node");
  json.add("node", report.node);
  json.add("completed", std::size_t{report.completed ? 1u : 0u});
  json.add("completion_tick", report.completion_tick);
  json.add("end_tick", report.end_tick);
  json.add("ticks_slept", report.ticks_slept);
  json.add("wall_ms", report.wall_ms);
  for (const auto& half : report.halves) {
    const std::string prefix = "edge" + std::to_string(half.edge_index) +
                               (half.sender_half ? "_sender" : "_receiver");
    json.add(prefix + "_control_bytes_sent", half.stats.control_bytes_sent);
    json.add(prefix + "_control_frames_sent", half.stats.control_frames_sent);
    json.add(prefix + "_data_bytes_sent", half.stats.data_bytes_sent);
    json.add(prefix + "_data_frames_sent", half.stats.data_frames_sent);
    json.add(prefix + "_messages_received", half.stats.messages_received);
    json.add(prefix + "_malformed_frames", half.stats.malformed_frames);
    json.add(prefix + "_frames_refused", half.stats.frames_refused);
    json.add(prefix + "_symbols_sent", half.symbols_sent);
    json.add(prefix + "_handshake_retries", half.handshake_retries);
    json.add(prefix + "_session_failed",
             std::size_t{half.session_failed ? 1u : 0u});
    json.add(prefix + "_pool_hit_rate", half.pool_hit_rate);
    json.add(prefix + "_datagrams_sent", half.udp.datagrams_sent);
    json.add(prefix + "_datagrams_received", half.udp.datagrams_received);
    json.add(prefix + "_deferred_sends", half.udp.deferred_sends);
    json.add(prefix + "_backlog_dropped", half.udp.backlog_dropped);
    json.add(prefix + "_refused_sends", half.udp.refused_sends);
    json.add(prefix + "_truncated_datagrams", half.udp.truncated_datagrams);
    json.add(prefix + "_injected_drops", half.udp.injected_drops);
    json.add(prefix + "_delayed_datagrams", half.udp.delayed_datagrams);
  }
  if (!json.write(out_path)) {
    std::fprintf(stderr, "swarm_node: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("node %zu: %s at tick %llu (end %llu, %.1f ms) -> %s\n",
              report.node, report.completed ? "completed" : "INCOMPLETE",
              static_cast<unsigned long long>(report.completion_tick),
              static_cast<unsigned long long>(report.end_tick), report.wall_ms,
              out_path.c_str());
  return report.completed ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string out_path = "swarm_node.json";
  std::string ready_file;
  std::string go_file;
  std::string progress_file;
  std::size_t node = 0;
  bool have_node = false;
  bool predict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "swarm_node: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--config") config_path = value();
    else if (arg == "--out") out_path = value();
    else if (arg == "--ready-file") ready_file = value();
    else if (arg == "--go-file") go_file = value();
    else if (arg == "--progress-file") progress_file = value();
    else if (arg == "--node") { node = std::stoul(value()); have_node = true; }
    else if (arg == "--predict") predict = true;
    else {
      std::fprintf(stderr,
                   "usage: swarm_node --config FILE (--predict | --node I "
                   "[--ready-file F] [--go-file F] [--progress-file F]) "
                   "[--out FILE]\n");
      return 1;
    }
  }
  if (config_path.empty() || (!predict && !have_node)) {
    std::fprintf(stderr,
                 "swarm_node: --config plus --predict or --node required\n");
    return 1;
  }
  try {
    const core::SwarmSpec spec = core::SwarmSpec::parse_file(config_path);
    return predict
               ? run_predict(spec, out_path)
               : run_node(spec, node, out_path, ready_file, go_file,
                          progress_file);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "swarm_node: %s\n", error.what());
    return 1;
  }
}
