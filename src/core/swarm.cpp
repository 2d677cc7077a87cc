#include "core/swarm.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/event_loop.hpp"
#include "core/origin.hpp"
#include "overlay/scenario.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace icd::core {

namespace {

/// `count` distinct encoded symbols from one origin stream (the
/// bench_latency universe rule; every process reproduces it bit for bit).
std::vector<codec::EncodedSymbol> build_universe(OriginServer& origin,
                                                 std::size_t count) {
  std::vector<codec::EncodedSymbol> universe;
  std::map<std::uint64_t, bool> seen;
  while (universe.size() < count) {
    auto symbol = origin.next();
    if (seen.emplace(symbol.id, true).second) {
      universe.push_back(std::move(symbol));
    }
  }
  return universe;
}

std::size_t edge_indegree(const SwarmSpec& spec, std::size_t receiver) {
  std::size_t indegree = 0;
  for (const auto& edge : spec.edges) {
    if (edge.receiver == receiver) ++indegree;
  }
  return indegree;
}

}  // namespace

void SwarmSpec::build_full_mesh(std::uint16_t base_port) {
  edges.clear();
  std::uint16_t port = base_port;
  for (std::size_t receiver = 0; receiver < nodes; ++receiver) {
    for (std::size_t sender = 0; sender < nodes; ++sender) {
      if (sender == receiver) continue;
      SwarmEdge edge;
      edge.sender = sender;
      edge.receiver = receiver;
      edge.sender_port = port++;
      edge.receiver_port = port++;
      edges.push_back(edge);
    }
  }
}

std::string swarm_strategy_key(overlay::Strategy strategy) {
  switch (strategy) {
    case overlay::Strategy::kRandom: return "random";
    case overlay::Strategy::kRandomBloom: return "randombf";
    case overlay::Strategy::kRecode: return "recode";
    case overlay::Strategy::kRecodeBloom: return "recodebf";
    case overlay::Strategy::kRecodeMinwise: return "recodemw";
  }
  return "unknown";
}

std::optional<overlay::Strategy> parse_strategy_key(const std::string& key) {
  for (const auto strategy : overlay::kAllStrategies) {
    if (swarm_strategy_key(strategy) == key) return strategy;
  }
  return std::nullopt;
}

const SwarmLinkProfile* SwarmSpec::node_profile(std::size_t id) const {
  const auto it = access.find(id);
  if (it != access.end()) return &link_profiles[it->second];
  if (access_default) return &link_profiles[*access_default];
  return nullptr;
}

bool SwarmSpec::shaped() const {
  for (std::size_t i = 0; i < nodes; ++i) {
    const SwarmLinkProfile* profile = node_profile(i);
    if (profile && (profile->loss > 0.0 || profile->delay_us > 0 ||
                    profile->jitter_us > 0)) {
      return true;
    }
  }
  return false;
}

std::string SwarmSpec::serialize() const {
  std::ostringstream out;
  out << "nodes " << nodes << "\n";
  out << "n " << n << "\n";
  out << "block_size " << block_size << "\n";
  out << "stretch " << stretch << "\n";
  out << "correlation " << correlation << "\n";
  out << "seed " << seed << "\n";
  out << "strategy " << swarm_strategy_key(strategy) << "\n";
  out << "mtu " << mtu << "\n";
  out << "batch_budget " << batch_budget << "\n";
  out << "symbols_per_tick " << symbols_per_tick << "\n";
  out << "handshake_retry_ticks " << handshake_retry_ticks << "\n";
  out << "request_overhead " << request_overhead << "\n";
  out << "loss_rate " << loss_rate << "\n";
  out << "max_handshake_retries " << max_handshake_retries << "\n";
  out << "tick_us " << tick_us << "\n";
  out << "max_ticks " << max_ticks << "\n";
  out << "host " << host << "\n";
  for (const auto& profile : link_profiles) {
    out << "link_profile " << profile.name << " " << profile.loss << " "
        << profile.delay_us << " " << profile.jitter_us << "\n";
  }
  for (const auto& [node, index] : access) {
    out << "access " << node << " " << link_profiles[index].name << "\n";
  }
  if (access_default) {
    out << "access default " << link_profiles[*access_default].name << "\n";
  }
  for (const auto& edge : edges) {
    out << "edge " << edge.sender << " " << edge.receiver << " "
        << edge.sender_port << " " << edge.receiver_port << "\n";
  }
  return out.str();
}

SwarmSpec SwarmSpec::parse(std::istream& in) {
  SwarmSpec spec;
  spec.edges.clear();
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key[0] == '#') continue;
    const auto bad = [&](const std::string& why) -> std::runtime_error {
      return std::runtime_error("SwarmSpec line " +
                                std::to_string(line_number) + ": " + why);
    };
    if (key == "nodes") fields >> spec.nodes;
    else if (key == "n") fields >> spec.n;
    else if (key == "block_size") fields >> spec.block_size;
    else if (key == "stretch") fields >> spec.stretch;
    else if (key == "correlation") fields >> spec.correlation;
    else if (key == "seed") fields >> spec.seed;
    else if (key == "strategy") {
      std::string name;
      fields >> name;
      const auto strategy = parse_strategy_key(name);
      if (!strategy) throw bad("unknown strategy '" + name + "'");
      spec.strategy = *strategy;
    } else if (key == "mtu") fields >> spec.mtu;
    else if (key == "batch_budget") fields >> spec.batch_budget;
    else if (key == "symbols_per_tick") fields >> spec.symbols_per_tick;
    else if (key == "handshake_retry_ticks") fields >> spec.handshake_retry_ticks;
    else if (key == "request_overhead") fields >> spec.request_overhead;
    else if (key == "loss_rate") fields >> spec.loss_rate;
    else if (key == "max_handshake_retries") fields >> spec.max_handshake_retries;
    else if (key == "tick_us") fields >> spec.tick_us;
    else if (key == "max_ticks") fields >> spec.max_ticks;
    else if (key == "host") fields >> spec.host;
    else if (key == "edge") {
      SwarmEdge edge;
      fields >> edge.sender >> edge.receiver >> edge.sender_port >>
          edge.receiver_port;
      spec.edges.push_back(edge);
    } else if (key == "link_profile") {
      SwarmLinkProfile profile;
      fields >> profile.name >> profile.loss >> profile.delay_us >>
          profile.jitter_us;
      if (fields.fail()) throw bad("bad value for 'link_profile'");
      if (profile.loss < 0.0 || profile.loss > 1.0) {
        throw bad("link_profile loss must be in [0, 1]");
      }
      for (const auto& existing : spec.link_profiles) {
        if (existing.name == profile.name) {
          throw bad("duplicate link_profile '" + profile.name + "'");
        }
      }
      spec.link_profiles.push_back(std::move(profile));
    } else if (key == "access") {
      std::string who, name;
      fields >> who >> name;
      if (fields.fail()) throw bad("access needs <node|default> <profile>");
      std::optional<std::size_t> index;
      for (std::size_t i = 0; i < spec.link_profiles.size(); ++i) {
        if (spec.link_profiles[i].name == name) index = i;
      }
      if (!index) {
        throw bad("access references unknown link_profile '" + name +
                  "' (declare profiles before access lines)");
      }
      if (who == "default") {
        spec.access_default = index;
      } else {
        std::istringstream who_in(who);
        std::size_t node = 0;
        if (!(who_in >> node) || !who_in.eof()) {
          throw bad("access node must be an id or 'default'");
        }
        spec.access[node] = *index;
      }
    } else {
      throw bad("unknown key '" + key + "'");
    }
    if (fields.fail()) throw bad("bad value for '" + key + "'");
  }
  if (spec.nodes < 2) throw std::runtime_error("SwarmSpec: nodes must be >= 2");
  for (const auto& [node, index] : spec.access) {
    if (node >= spec.nodes) {
      throw std::runtime_error("SwarmSpec: access names node " +
                               std::to_string(node) + " >= nodes");
    }
    (void)index;
  }
  for (const auto& edge : spec.edges) {
    if (edge.sender >= spec.nodes || edge.receiver >= spec.nodes ||
        edge.sender == edge.receiver) {
      throw std::runtime_error("SwarmSpec: bad edge endpoints");
    }
  }
  return spec;
}

SwarmSpec SwarmSpec::parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

SwarmSpec SwarmSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("SwarmSpec: cannot open " + path);
  return parse(in);
}

SwarmWorld build_swarm_world(const SwarmSpec& spec) {
  SwarmWorld world;
  std::vector<std::uint8_t> content(spec.n * spec.block_size, 0);
  util::Xoshiro256 content_rng(spec.seed);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(content_rng());
  world.distribution = codec::DegreeDistribution::robust_soliton(spec.n);
  OriginServer origin(std::move(content), spec.block_size, world.distribution,
                      spec.seed ^ 0x0815);
  world.params = origin.parameters();
  const auto distinct =
      static_cast<std::size_t>(spec.stretch * static_cast<double>(spec.n));
  world.universe = build_universe(origin, distinct);
  // Node 0 takes the scenario's receiver set, node i the (i-1)th sender
  // set: every node holds a same-sized partial with the spec'd shared
  // fraction, the Figure 7/8 initial condition.
  util::Xoshiro256 scenario_rng(util::mix64(spec.seed ^ 0x5ce0a210));
  const auto scenario = overlay::make_multi_scenario(
      spec.n, spec.stretch, spec.correlation, spec.nodes - 1, scenario_rng);
  world.preload.push_back(scenario.receiver);
  for (const auto& set : scenario.senders) world.preload.push_back(set);
  world.target =
      static_cast<std::size_t>(1.07 * static_cast<double>(spec.n) + 0.999);
  return world;
}

std::unique_ptr<Peer> make_swarm_peer(const SwarmSpec& spec,
                                      const SwarmWorld& world, std::size_t id,
                                      const std::string& name_suffix) {
  auto peer = std::make_unique<Peer>("node" + std::to_string(id) + name_suffix,
                                     world.params, world.distribution);
  (void)spec;
  for (const std::uint64_t index : world.preload[id]) {
    peer->receive_encoded(world.universe[static_cast<std::size_t>(index)]);
  }
  return peer;
}

std::size_t swarm_edge_quota(const SwarmSpec& spec, const SwarmWorld& world,
                             std::size_t edge_index) {
  const SwarmEdge& edge = spec.edges[edge_index];
  const std::size_t preloaded = world.preload[edge.receiver].size();
  const std::size_t needed =
      world.target > preloaded ? world.target - preloaded : 1;
  const std::size_t indegree = std::max<std::size_t>(
      1, edge_indegree(spec, edge.receiver));
  const auto scaled = static_cast<std::size_t>(
      static_cast<double>(needed) * spec.request_overhead);
  return std::max<std::size_t>(1, scaled / indegree);
}

SessionOptions swarm_session_options(const SwarmSpec& spec,
                                     const SwarmWorld& world,
                                     std::size_t edge_index) {
  SessionOptions options;
  options.strategy = spec.strategy;
  options.requested_symbols = swarm_edge_quota(spec, world, edge_index);
  options.handshake_retry_ticks = spec.handshake_retry_ticks;
  options.max_handshake_retries = spec.max_handshake_retries;
  // Off: quota-bound serving is what makes real totals predictable; a
  // timing-dependent stop would make them a race.
  options.flow_control = false;
  options.seed = util::mix64(spec.seed ^ (0xab5 + 7 * edge_index));
  return options;
}

void service_sender_half(SenderEndpoint& sender, wire::Transport& transport,
                         std::size_t quota, std::size_t budget_per_tick) {
  sender.tick();
  if (sender.transfer_active()) {
    for (std::size_t i = 0;
         i < budget_per_tick && sender.symbols_sent() < quota; ++i) {
      if (!sender.send_symbol()) break;
    }
  }
  transport.flush_batch();
}

void service_receiver_half(ReceiverEndpoint& receiver,
                           wire::Transport& transport, std::uint64_t now) {
  receiver.advance_to(now);
  receiver.tick();
  transport.flush_batch();
}

namespace {

/// The predictor's model of one node's inbound socket shaping (loss
/// injection + FIFO delay line) as a ChannelConfig, wall-clock microseconds
/// converted to ticks at the spec's tick period.
wire::ChannelConfig inbound_shaping(const SwarmSpec& spec,
                                    const SwarmLinkProfile* profile,
                                    std::uint64_t seed) {
  wire::ChannelConfig config;
  config.mtu = spec.mtu;
  config.seed = seed;
  if (profile) {
    const std::uint64_t tick_us = std::max<std::uint64_t>(1, spec.tick_us);
    config.loss_rate = profile->loss;
    config.delay_ticks = profile->delay_us / tick_us;
    config.jitter_ticks = profile->jitter_us / tick_us;
  }
  return config;
}

}  // namespace

SwarmPrediction predict_swarm(const SwarmSpec& spec) {
  const SwarmWorld world = build_swarm_world(spec);
  const bool shaped = spec.shaped();

  std::vector<std::unique_ptr<Peer>> live;
  std::vector<std::unique_ptr<Peer>> frozen;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    live.push_back(make_swarm_peer(spec, world, i));
    frozen.push_back(make_swarm_peer(spec, world, i, ".frozen"));
  }

  struct PredictEdge {
    std::unique_ptr<wire::Pipe> pipe;           // unshaped: perfect link
    std::unique_ptr<wire::ChannelLink> link;    // shaped: modeled losses
    wire::Transport* a = nullptr;               // sender side
    wire::Transport* b = nullptr;               // receiver side
    std::unique_ptr<SenderEndpoint> sender;
    std::unique_ptr<ReceiverEndpoint> receiver;
    std::size_t quota = 0;
  };
  std::vector<PredictEdge> lanes;
  for (std::size_t e = 0; e < spec.edges.size(); ++e) {
    const SwarmEdge& edge = spec.edges[e];
    PredictEdge lane;
    if (shaped) {
      // Each direction carries the *receiving* node's inbound shaping —
      // the same placement as the real run, where every node shapes its
      // own sockets. Seeds decorrelate per edge and direction.
      lane.link = std::make_unique<wire::ChannelLink>(
          inbound_shaping(spec, spec.node_profile(edge.receiver),
                          util::mix64(spec.seed ^ (0x51a9ULL + 2 * e))),
          inbound_shaping(spec, spec.node_profile(edge.sender),
                          util::mix64(spec.seed ^ (0x51a9ULL + 2 * e + 1))));
      lane.a = &lane.link->a();
      lane.b = &lane.link->b();
    } else {
      lane.pipe = std::make_unique<wire::Pipe>(spec.mtu);
      lane.a = &lane.pipe->a();
      lane.b = &lane.pipe->b();
    }
    lane.a->set_batch_budget(spec.batch_budget);
    lane.b->set_batch_budget(spec.batch_budget);
    const SessionOptions options = swarm_session_options(spec, world, e);
    lane.quota = swarm_edge_quota(spec, world, e);
    lane.sender = std::make_unique<SenderEndpoint>(*frozen[edge.sender],
                                                   options, *lane.a);
    lane.receiver = std::make_unique<ReceiverEndpoint>(*live[edge.receiver],
                                                       options, *lane.b);
    lanes.push_back(std::move(lane));
  }
  for (auto& lane : lanes) lane.receiver->start();

  SwarmPrediction prediction;
  prediction.completed.assign(spec.nodes, false);
  prediction.completion_tick.assign(spec.nodes, 0);
  std::uint64_t t = 0;
  for (; t < spec.max_ticks; ++t) {
    for (auto& lane : lanes) {
      if (lane.link) lane.link->advance_to(t);
      service_sender_half(*lane.sender, *lane.a, lane.quota,
                          spec.symbols_per_tick);
      service_receiver_half(*lane.receiver, *lane.b, t);
    }
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      // The figures' completion rule (bench_latency): decoded, or the
      // distinct-symbol decoding target reached. Both are functions of
      // the received symbol *set*, not its arrival order, so the real
      // swarm reproduces the flag exactly.
      if (!prediction.completed[i] &&
          (live[i]->has_content() ||
           live[i]->symbol_count() >= world.target)) {
        prediction.completed[i] = true;
        prediction.completion_tick[i] = t;
      }
    }
    const bool everyone = std::all_of(prediction.completed.begin(),
                                      prediction.completed.end(),
                                      [](bool c) { return c; });
    const bool quotas_served =
        std::all_of(lanes.begin(), lanes.end(), [](const PredictEdge& lane) {
          return lane.sender->symbols_sent() >= lane.quota;
        });
    if (everyone && quotas_served) {
      ++t;
      break;
    }
  }
  prediction.ticks = t;
  prediction.all_completed =
      std::all_of(prediction.completed.begin(), prediction.completed.end(),
                  [](bool c) { return c; });
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    prediction.final_symbols.push_back(live[i]->symbol_count());
  }
  for (auto& lane : lanes) {
    const auto& sent_a = lane.a->stats();
    const auto& sent_b = lane.b->stats();
    SwarmEdgeTotals totals;
    totals.control_bytes = sent_a.control_bytes_sent + sent_b.control_bytes_sent;
    totals.control_frames =
        sent_a.control_frames_sent + sent_b.control_frames_sent;
    totals.data_bytes = sent_a.data_bytes_sent + sent_b.data_bytes_sent;
    totals.data_frames = sent_a.data_frames_sent + sent_b.data_frames_sent;
    prediction.edges.push_back(totals);
    prediction.handshake_retries += lane.receiver->handshake_retries();
  }
  return prediction;
}

namespace {

/// One locally-owned edge half of a running swarm node.
struct Half {
  std::size_t edge_index = 0;
  std::size_t quota = 0;
  std::unique_ptr<wire::UdpTransport> transport;
  std::unique_ptr<SenderEndpoint> sender;      // sender halves
  std::unique_ptr<ReceiverEndpoint> receiver;  // receiver halves
};

/// Atomically rewrites the watchdog heartbeat (write-then-rename, so the
/// harness never reads a torn line).
void write_progress(const std::string& path, std::uint64_t now,
                    std::size_t symbols, bool completed) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "tick " << now << " symbols " << symbols << " completed "
        << (completed ? 1 : 0) << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

void wait_for_file(const std::string& path, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!std::filesystem::exists(path)) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("swarm barrier timed out waiting for " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

SwarmNodeReport run_swarm_node(const SwarmSpec& spec, std::size_t id,
                               const std::string& ready_file,
                               const std::string& go_file,
                               const std::string& progress_file) {
  if (id >= spec.nodes) throw std::invalid_argument("swarm node id out of range");
  const SwarmWorld world = build_swarm_world(spec);
  const SwarmLinkProfile* profile = spec.node_profile(id);
  auto live = make_swarm_peer(spec, world, id);
  auto frozen = make_swarm_peer(spec, world, id, ".frozen");

  std::vector<Half> halves;
  for (std::size_t e = 0; e < spec.edges.size(); ++e) {
    const SwarmEdge& edge = spec.edges[e];
    if (edge.sender != id && edge.receiver != id) continue;
    const bool sender_half = edge.sender == id;
    auto socket = wire::UdpSocket::bind(
        spec.host, sender_half ? edge.sender_port : edge.receiver_port);
    socket.connect(spec.host,
                   sender_half ? edge.receiver_port : edge.sender_port);
    Half half;
    half.edge_index = e;
    half.quota = swarm_edge_quota(spec, world, e);
    half.transport =
        std::make_unique<wire::UdpTransport>(std::move(socket), spec.mtu);
    half.transport->set_batch_budget(spec.batch_budget);
    // Inbound shaping: the global loss_rate composed with this node's own
    // access-class loss (independent drops), plus the class's delay line.
    // Deterministic per (spec seed, edge, direction) so reruns of a lossy
    // swarm drop the same inbound datagrams.
    double inbound_loss = spec.loss_rate;
    if (profile && profile->loss > 0.0) {
      inbound_loss = 1.0 - (1.0 - inbound_loss) * (1.0 - profile->loss);
    }
    if (inbound_loss > 0.0) {
      half.transport->set_loss_injection(
          inbound_loss,
          util::mix64(spec.seed ^ (0x10c5ULL + 2 * e + (sender_half ? 1 : 0))));
    }
    if (profile && (profile->delay_us > 0 || profile->jitter_us > 0)) {
      half.transport->set_delay_shaping(
          profile->delay_us, profile->jitter_us,
          util::mix64(spec.seed ^ (0xde1aULL + 2 * e + (sender_half ? 1 : 0))));
    }
    const SessionOptions options = swarm_session_options(spec, world, e);
    if (sender_half) {
      half.sender = std::make_unique<SenderEndpoint>(*frozen, options,
                                                     *half.transport);
    } else {
      half.receiver = std::make_unique<ReceiverEndpoint>(*live, options,
                                                         *half.transport);
    }
    halves.push_back(std::move(half));
  }

  // Start barrier: all sockets of all processes must be bound before the
  // first bundle flies, or an early bundle dies to ICMP unreachable and
  // the retry diverges the control-byte totals from the prediction.
  if (!ready_file.empty()) {
    std::ofstream ready(ready_file);
    ready << "ready\n";
  }
  if (!go_file.empty()) wait_for_file(go_file, std::chrono::seconds(60));

  EventLoop loop;
  loop.enable_wall_clock(spec.tick_us * 1000);
  for (auto& half : halves) loop.watch_fd(half.transport->fd());
  for (auto& half : halves) {
    if (half.receiver) half.receiver->start();
  }

  SwarmNodeReport report;
  report.node = id;
  const auto wall_start = std::chrono::steady_clock::now();
  auto next_heartbeat = wall_start;
  std::uint64_t now = 0;
  std::uint64_t last_serviced = 0;
  bool first_service = true;
  while (true) {
    now = loop.wall_now();
    if (!progress_file.empty() &&
        std::chrono::steady_clock::now() >= next_heartbeat) {
      write_progress(progress_file, now, live->symbol_count(),
                     report.completed);
      next_heartbeat =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    }
    // Catch-up credit: ticks slept or stalled across grant their data
    // budget in one round (capped — totals are quota-bound anyway).
    const std::uint64_t credit = std::min<std::uint64_t>(
        std::max<std::uint64_t>(1, now - last_serviced), 64);
    // Receiver halves are serviced at most once per wall tick: a readable
    // socket can wake the poll loop many times inside one tick (especially
    // with a delay line holding datagrams back), and every same-tick
    // service would count one quiet tick on the handshake retry clock —
    // inflating retries far beyond what the lockstep predictor (one
    // service per tick, by construction) would ever fire.
    const bool rx_due = first_service || now != last_serviced;
    first_service = false;
    last_serviced = now;
    for (auto& half : halves) {
      half.transport->pump();
      if (half.sender) {
        service_sender_half(*half.sender, *half.transport, half.quota,
                            spec.symbols_per_tick * credit);
      } else if (rx_due) {
        service_receiver_half(*half.receiver, *half.transport, now);
      }
    }
    if (!report.completed && (live->has_content() ||
                              live->symbol_count() >= world.target)) {
      report.completed = true;
      report.completion_tick = now;
    }

    bool uploads_done = true;
    bool tx_idle = true;
    bool downloads_drained = true;
    for (const auto& half : halves) {
      if (!half.transport->tx_idle()) tx_idle = false;
      if (half.sender && half.sender->symbols_sent() < half.quota) {
        uploads_done = false;
      }
      // A failed receiver half (handshake budget exhausted, sender dead)
      // is abandoned: it can make no further progress and must not keep
      // the node alive until max_ticks.
      if (half.receiver && !half.receiver->failed() &&
          half.receiver->symbols_received() < half.quota) {
        downloads_drained = false;
      }
    }
    // Exit when everything this node owes the swarm is on the wire and its
    // own download can make no further progress: decoded, or every quota
    // datagram arrived (UDP loss of the tail is caught by max_ticks).
    const bool downloads_done = report.completed || downloads_drained;
    if ((uploads_done && tx_idle && downloads_done) || now >= spec.max_ticks) {
      break;
    }

    // Plan the wake-up: the next tick at which one of this node's halves
    // has work — the next data-budget tick, an unfinished handshake's
    // retry deadline, a backlogged transmit — capped so the loop never
    // parks long, then sleep in poll until it is due or a socket turns
    // readable.
    std::uint64_t due = now + 64;
    for (const auto& half : halves) {
      if ((half.sender && half.sender->transfer_active() &&
           half.sender->symbols_sent() < half.quota) ||
          !half.transport->tx_idle()) {
        due = std::min(due, now + 1);
      }
      if (half.receiver && !half.receiver->transfer_started() &&
          !half.receiver->failed()) {
        const auto retry = half.receiver->retry_due_at();
        due = std::min(due, std::max(retry.value_or(now + 1), now + 1));
      }
    }
    loop.poll_wait(due);
  }

  // Teardown grace: flush any transmit backlog so the last datagrams the
  // accounting already counted actually depart.
  for (int round = 0; round < 64; ++round) {
    bool idle = true;
    for (auto& half : halves) idle = half.transport->pump() && idle;
    if (idle) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  write_progress(progress_file, now, live->symbol_count(), report.completed);

  report.end_tick = now;
  report.ticks_slept = loop.ticks_skipped();
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  for (const auto& half : halves) {
    SwarmHalfReport half_report;
    half_report.edge_index = half.edge_index;
    half_report.sender_half = half.sender != nullptr;
    half_report.stats = half.transport->stats();
    half_report.udp = half.transport->udp_stats();
    if (half.sender) half_report.symbols_sent = half.sender->symbols_sent();
    if (half.receiver) {
      half_report.handshake_retries = half.receiver->handshake_retries();
      half_report.session_failed = half.receiver->failed();
    }
    half_report.pool_hit_rate = half.transport->pool().stats().hit_rate();
    report.halves.push_back(half_report);
  }
  return report;
}

}  // namespace icd::core
