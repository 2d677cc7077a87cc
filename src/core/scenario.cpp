#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/field_readers.hpp"
#include "core/sharded_delivery.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace icd::core {

namespace {

/// Independent-loss composition: survive both legs.
double combine_loss(double a, double b) { return 1.0 - (1.0 - a) * (1.0 - b); }

}  // namespace

std::optional<std::size_t> Scenario::profile_index(std::size_t peer) const {
  const auto it = access.find(peer);
  if (it != access.end()) return it->second;
  return access_default;
}

Scenario Scenario::parse(std::istream& in, const std::string& origin) {
  Scenario scenario;
  scenario.profiles.clear();
  std::string line;
  std::size_t line_number = 0;
  std::set<std::string> seen_scalar;
  std::set<std::string> seen_gate;
  // Access lines may reference profiles defined later in the file; collect
  // (line, peer-or-default, profile-name) and resolve once everything is
  // read.
  struct AccessLine {
    std::size_t line = 0;
    bool is_default = false;
    std::size_t peer = 0;
    std::string profile;
  };
  std::vector<AccessLine> access_lines;

  const auto scalar_once = [&](const std::string& key) {
    if (!seen_scalar.insert(key).second) {
      fail(origin, line_number, "duplicate key '" + key + "'");
    }
  };

  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key[0] == '#') continue;

    if (key == "name") {
      scalar_once(key);
      if (!(fields >> scenario.name)) fail(origin, line_number, "name missing");
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "peers") {
      scalar_once(key);
      scenario.peers =
          read_integer<std::size_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "fed") {
      scalar_once(key);
      scenario.fed =
          read_integer<std::size_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "content_bytes") {
      scalar_once(key);
      scenario.content_bytes =
          read_integer<std::size_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "block_size") {
      scalar_once(key);
      scenario.block_size =
          read_integer<std::size_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "seed") {
      scalar_once(key);
      scenario.seed =
          read_integer<std::uint64_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "strategy") {
      scalar_once(key);
      std::string name;
      if (!(fields >> name)) fail(origin, line_number, "strategy missing");
      const auto strategy = overlay::parse_strategy_key(name);
      if (!strategy) {
        fail(origin, line_number, "unknown strategy '" + name + "'");
      }
      scenario.strategy = *strategy;
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "mtu" || key == "refresh_interval" ||
               key == "max_peer_sessions" || key == "handshake_retry_ticks" ||
               key == "liveness_timeout_ticks" ||
               key == "handshake_backoff_factor" ||
               key == "handshake_backoff_cap_ticks" ||
               key == "max_handshake_retries" || key == "suspect_ttl_ticks") {
      scalar_once(key);
      const auto value =
          read_integer<std::size_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
      if (key == "mtu") scenario.mtu = value;
      else if (key == "refresh_interval") scenario.refresh_interval = value;
      else if (key == "max_peer_sessions") scenario.max_peer_sessions = value;
      else if (key == "handshake_retry_ticks") scenario.handshake_retry_ticks = value;
      else if (key == "liveness_timeout_ticks") scenario.liveness_timeout_ticks = value;
      else if (key == "handshake_backoff_factor") scenario.handshake_backoff_factor = value;
      else if (key == "handshake_backoff_cap_ticks") scenario.handshake_backoff_cap_ticks = value;
      else if (key == "max_handshake_retries") scenario.max_handshake_retries = value;
      else scenario.suspect_ttl_ticks = value;
    } else if (key == "flow_control") {
      scalar_once(key);
      const auto value =
          read_integer<std::size_t>(fields, origin, line_number, key);
      if (value > 1) fail(origin, line_number, "flow_control must be 0 or 1");
      scenario.flow_control = value == 1;
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "max_ticks") {
      scalar_once(key);
      scenario.max_ticks =
          read_integer<std::uint64_t>(fields, origin, line_number, key);
      reject_trailing(fields, origin, line_number, key);
    } else if (key == "profile") {
      LinkProfile profile;
      if (!(fields >> profile.name)) {
        fail(origin, line_number, "profile needs a name");
      }
      for (const auto& existing : scenario.profiles) {
        if (existing.name == profile.name) {
          fail(origin, line_number,
               "duplicate profile '" + profile.name + "'");
        }
      }
      std::string attribute;
      while (fields >> attribute) {
        if (attribute == "up") {
          profile.up_rate = read_rate(fields, origin, line_number, "up");
        } else if (attribute == "down") {
          profile.down_rate = read_rate(fields, origin, line_number, "down");
        } else if (attribute == "delay") {
          profile.delay_ticks =
              read_integer<std::uint64_t>(fields, origin, line_number, "delay");
        } else if (attribute == "jitter") {
          profile.jitter_ticks = read_integer<std::uint64_t>(
              fields, origin, line_number, "jitter");
        } else if (attribute == "loss") {
          profile.loss_rate =
              read_probability(fields, origin, line_number, "loss");
        } else if (attribute == "ge") {
          profile.ge_loss_good =
              read_probability(fields, origin, line_number, "ge loss_good");
          profile.ge_loss_bad =
              read_probability(fields, origin, line_number, "ge loss_bad");
          profile.ge_p_good_bad =
              read_probability(fields, origin, line_number, "ge p_good_bad");
          profile.ge_p_bad_good =
              read_probability(fields, origin, line_number, "ge p_bad_good");
          if (profile.ge_loss_bad <= 0.0) {
            fail(origin, line_number,
                 "ge loss_bad must be > 0 (it enables the chain)");
          }
          if (profile.ge_p_bad_good <= 0.0) {
            fail(origin, line_number,
                 "ge p_bad_good must be > 0 (a permanent bad state never "
                 "recovers)");
          }
        } else {
          fail(origin, line_number,
               "unknown profile attribute '" + attribute + "'");
        }
      }
      scenario.profiles.push_back(std::move(profile));
    } else if (key == "access") {
      std::string who;
      if (!(fields >> who)) {
        fail(origin, line_number, "access needs a peer id or 'default'");
      }
      AccessLine entry;
      entry.line = line_number;
      if (who == "default") {
        entry.is_default = true;
      } else {
        std::istringstream who_in(who);
        if (who[0] == '-' || !(who_in >> entry.peer) || !who_in.eof()) {
          fail(origin, line_number,
               "access peer must be a non-negative id or 'default'");
        }
      }
      if (!(fields >> entry.profile)) {
        fail(origin, line_number, "access needs a profile name");
      }
      reject_trailing(fields, origin, line_number, key);
      access_lines.push_back(std::move(entry));
    } else if (key == "arrival") {
      std::string kind;
      if (!(fields >> kind)) {
        fail(origin, line_number, "arrival needs a kind (flash | poisson)");
      }
      ArrivalProcess arrival;
      if (kind == "flash") {
        arrival.kind = ArrivalProcess::Kind::kFlash;
        arrival.at =
            read_integer<std::uint64_t>(fields, origin, line_number, "at");
        arrival.count =
            read_integer<std::size_t>(fields, origin, line_number, "count");
        std::string extra;
        if (fields >> extra) {
          if (extra != "ramp") {
            fail(origin, line_number,
                 "trailing tokens after 'arrival flash': '" + extra + "'");
          }
          arrival.ramp_ticks = read_integer<std::uint64_t>(
              fields, origin, line_number, "ramp");
          reject_trailing(fields, origin, line_number, key);
        }
      } else if (kind == "poisson") {
        arrival.kind = ArrivalProcess::Kind::kPoisson;
        arrival.at =
            read_integer<std::uint64_t>(fields, origin, line_number, "from");
        arrival.count =
            read_integer<std::size_t>(fields, origin, line_number, "count");
        arrival.rate = read_rate(fields, origin, line_number, "rate");
        if (arrival.rate <= 0.0) {
          fail(origin, line_number, "poisson rate must be > 0");
        }
        arrival.seed =
            read_integer<std::uint64_t>(fields, origin, line_number, "seed");
        reject_trailing(fields, origin, line_number, key);
      } else {
        fail(origin, line_number, "unknown arrival kind '" + kind + "'");
      }
      if (arrival.count == 0) {
        fail(origin, line_number, "arrival count must be >= 1");
      }
      scenario.arrivals.push_back(arrival);
    } else if (key == "crash") {
      FaultPlan::Crash crash;
      crash.at = read_integer<std::uint64_t>(fields, origin, line_number, "at");
      crash.peer =
          read_integer<std::size_t>(fields, origin, line_number, "peer");
      reject_trailing(fields, origin, line_number, key);
      scenario.faults.crashes.push_back(crash);
    } else if (key == "restart") {
      FaultPlan::Restart restart;
      restart.at =
          read_integer<std::uint64_t>(fields, origin, line_number, "at");
      restart.peer =
          read_integer<std::size_t>(fields, origin, line_number, "peer");
      reject_trailing(fields, origin, line_number, key);
      scenario.faults.restarts.push_back(restart);
    } else if (key == "stall") {
      FaultPlan::Stall stall;
      stall.from =
          read_integer<std::uint64_t>(fields, origin, line_number, "from");
      stall.until =
          read_integer<std::uint64_t>(fields, origin, line_number, "until");
      stall.peer =
          read_integer<std::size_t>(fields, origin, line_number, "peer");
      reject_trailing(fields, origin, line_number, key);
      if (stall.until <= stall.from) {
        fail(origin, line_number, "stall window must have until > from");
      }
      scenario.faults.stalls.push_back(stall);
    } else if (key == "blackout") {
      FaultPlan::Blackout blackout;
      blackout.from =
          read_integer<std::uint64_t>(fields, origin, line_number, "from");
      blackout.until =
          read_integer<std::uint64_t>(fields, origin, line_number, "until");
      blackout.sender =
          read_integer<std::size_t>(fields, origin, line_number, "sender");
      blackout.receiver =
          read_integer<std::size_t>(fields, origin, line_number, "receiver");
      reject_trailing(fields, origin, line_number, key);
      if (blackout.until <= blackout.from) {
        fail(origin, line_number, "blackout window must have until > from");
      }
      if (blackout.sender == blackout.receiver) {
        fail(origin, line_number, "blackout edge must join distinct peers");
      }
      scenario.faults.blackouts.push_back(blackout);
    } else if (key == "gate") {
      std::string which;
      if (!(fields >> which)) {
        fail(origin, line_number,
             "gate needs a kind (deadline | max_failed_sessions | "
             "control_budget)");
      }
      if (!seen_gate.insert(which).second) {
        fail(origin, line_number, "duplicate gate '" + which + "'");
      }
      if (which == "deadline") {
        scenario.gates.deadline_ticks =
            read_integer<std::uint64_t>(fields, origin, line_number, which);
      } else if (which == "max_failed_sessions") {
        scenario.gates.max_failed_sessions =
            read_integer<std::size_t>(fields, origin, line_number, which);
      } else if (which == "control_budget") {
        scenario.gates.control_budget_bytes =
            read_integer<std::size_t>(fields, origin, line_number, which);
      } else {
        fail(origin, line_number, "unknown gate '" + which + "'");
      }
      reject_trailing(fields, origin, line_number, key);
    } else {
      fail(origin, line_number, "unknown key '" + key + "'");
    }
  }

  // --- Cross-line validation ----------------------------------------------
  if (scenario.peers < 2) {
    throw std::runtime_error(origin + ": peers must be >= 2");
  }
  if (scenario.fed == 0 || scenario.fed > scenario.peers) {
    throw std::runtime_error(origin + ": fed must be in [1, peers]");
  }
  if (scenario.block_size == 0 || scenario.content_bytes < scenario.block_size ||
      scenario.content_bytes % scenario.block_size != 0) {
    throw std::runtime_error(
        origin + ": content_bytes must be a positive multiple of block_size");
  }
  if (scenario.max_ticks == 0) {
    throw std::runtime_error(origin + ": max_ticks must be > 0");
  }
  std::size_t total_joins = 0;
  for (const auto& arrival : scenario.arrivals) total_joins += arrival.count;
  const std::size_t population = scenario.peers + total_joins;
  for (const auto& crash : scenario.faults.crashes) {
    if (crash.peer >= population) {
      throw std::runtime_error(origin + ": crash names peer " +
                               std::to_string(crash.peer) +
                               " beyond the swarm population");
    }
  }
  for (const auto& restart : scenario.faults.restarts) {
    if (restart.peer >= population) {
      throw std::runtime_error(origin + ": restart names peer " +
                               std::to_string(restart.peer) +
                               " beyond the swarm population");
    }
  }
  for (const auto& stall : scenario.faults.stalls) {
    if (stall.peer >= population) {
      throw std::runtime_error(origin + ": stall names peer " +
                               std::to_string(stall.peer) +
                               " beyond the swarm population");
    }
  }
  for (const auto& blackout : scenario.faults.blackouts) {
    if (blackout.sender >= population || blackout.receiver >= population) {
      throw std::runtime_error(origin +
                               ": blackout edge beyond the swarm population");
    }
  }
  for (const auto& entry : access_lines) {
    std::optional<std::size_t> index;
    for (std::size_t i = 0; i < scenario.profiles.size(); ++i) {
      if (scenario.profiles[i].name == entry.profile) index = i;
    }
    if (!index) {
      fail(origin, entry.line,
           "access references unknown profile '" + entry.profile + "'");
    }
    if (entry.is_default) {
      if (scenario.access_default) {
        fail(origin, entry.line, "duplicate 'access default'");
      }
      scenario.access_default = index;
    } else {
      if (entry.peer >= population) {
        fail(origin, entry.line,
             "access names peer " + std::to_string(entry.peer) +
                 " beyond the swarm population");
      }
      if (!scenario.access.emplace(entry.peer, *index).second) {
        fail(origin, entry.line,
             "duplicate access for peer " + std::to_string(entry.peer));
      }
    }
  }
  return scenario;
}

Scenario Scenario::parse_text(const std::string& text,
                              const std::string& origin) {
  std::istringstream in(text);
  return parse(in, origin);
}

Scenario Scenario::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Scenario: cannot open " + path);
  return parse(in, std::filesystem::path(path).filename().string());
}

wire::ChannelConfig compose_edge(const LinkProfile* sender,
                                 const LinkProfile* receiver,
                                 const wire::ChannelConfig& base) {
  wire::ChannelConfig config = base;
  const double up = sender ? sender->up_rate : 0.0;
  const double down = receiver ? receiver->down_rate : 0.0;
  if (up > 0.0 && down > 0.0) {
    config.rate_bytes_per_tick = std::min(up, down);
  } else {
    config.rate_bytes_per_tick = std::max(up, down);
  }
  config.delay_ticks = (sender ? sender->delay_ticks : 0) +
                       (receiver ? receiver->delay_ticks : 0);
  config.jitter_ticks = (sender ? sender->jitter_ticks : 0) +
                        (receiver ? receiver->jitter_ticks : 0);
  const double plain = combine_loss(sender ? sender->loss_rate : 0.0,
                                    receiver ? receiver->loss_rate : 0.0);
  // A Gilbert-Elliott chain on either side replaces the Bernoulli draw
  // (the channel's contract); the far end's plain loss folds into both of
  // its states so neither impairment is silently dropped. When both sides
  // carry a chain, the burstier one (larger stationary bad-state share)
  // wins — composing two Markov chains per frame is not worth the extra
  // machinery for an access-class model.
  const LinkProfile* ge = nullptr;
  const auto bad_share = [](const LinkProfile& p) {
    return p.ge_p_good_bad / (p.ge_p_good_bad + p.ge_p_bad_good);
  };
  if (sender && sender->ge_loss_bad > 0.0) ge = sender;
  if (receiver && receiver->ge_loss_bad > 0.0 &&
      (!ge || bad_share(*receiver) > bad_share(*ge))) {
    ge = receiver;
  }
  if (ge) {
    config.loss_rate = 0.0;
    config.ge_loss_good = combine_loss(ge->ge_loss_good, plain);
    config.ge_loss_bad = combine_loss(ge->ge_loss_bad, plain);
    config.ge_p_good_bad = ge->ge_p_good_bad;
    config.ge_p_bad_good = ge->ge_p_bad_good;
  } else {
    config.loss_rate = plain;
    config.ge_loss_good = config.ge_loss_bad = 0.0;
    config.ge_p_good_bad = config.ge_p_bad_good = 0.0;
  }
  return config;
}

std::vector<FaultPlan::Join> generate_arrivals(
    const std::vector<ArrivalProcess>& arrivals) {
  std::vector<FaultPlan::Join> joins;
  for (const auto& arrival : arrivals) {
    if (arrival.kind == ArrivalProcess::Kind::kFlash) {
      if (arrival.ramp_ticks == 0) {
        joins.push_back({arrival.at, arrival.count, false});
      } else {
        // Linear ramp: joiner i enters at at + floor(i * ramp / count), so
        // the crowd spreads evenly over the window with the first joiner at
        // the window start.
        for (std::size_t i = 0; i < arrival.count; ++i) {
          const std::uint64_t offset =
              (static_cast<std::uint64_t>(i) * arrival.ramp_ticks) /
              arrival.count;
          joins.push_back({arrival.at + offset, 1, false});
        }
      }
    } else {
      // Seeded Poisson process: exponential inter-arrival times at `rate`
      // joins per tick, reproducible from the process's own seed.
      util::Xoshiro256 rng(arrival.seed);
      double clock = static_cast<double>(arrival.at);
      for (std::size_t i = 0; i < arrival.count; ++i) {
        const double u = rng.next_double();
        clock += -std::log(1.0 - u) / arrival.rate;
        joins.push_back({static_cast<std::uint64_t>(clock), 1, false});
      }
    }
  }
  std::stable_sort(joins.begin(), joins.end(),
                   [](const FaultPlan::Join& a, const FaultPlan::Join& b) {
                     return a.at < b.at;
                   });
  return joins;
}

CompiledScenario compile_scenario(const Scenario& scenario) {
  CompiledScenario compiled;
  compiled.name = scenario.name;
  compiled.peers = scenario.peers;
  compiled.fed = scenario.fed;
  compiled.max_ticks = scenario.max_ticks;
  compiled.gates = scenario.gates;

  compiled.content.assign(scenario.content_bytes, 0);
  util::Xoshiro256 content_rng(util::mix64(scenario.seed ^ 0x5ce2a9c0));
  for (auto& byte : compiled.content) {
    byte = static_cast<std::uint8_t>(content_rng());
  }

  DeliveryOptions options;
  options.block_size = scenario.block_size;
  options.session_seed = util::mix64(scenario.seed ^ 0x5e551011);
  options.strategy = scenario.strategy;
  options.max_peer_sessions = scenario.max_peer_sessions;
  options.refresh_interval = scenario.refresh_interval;
  options.flow_control = scenario.flow_control;
  options.handshake_retry_ticks = scenario.handshake_retry_ticks;
  options.liveness_timeout_ticks = scenario.liveness_timeout_ticks;
  options.handshake_backoff_factor = scenario.handshake_backoff_factor;
  options.handshake_backoff_cap_ticks = scenario.handshake_backoff_cap_ticks;
  options.max_handshake_retries = scenario.max_handshake_retries;
  options.suspect_ttl_ticks = scenario.suspect_ttl_ticks;
  options.link.mtu = scenario.mtu;

  // The per-edge heterogeneous-link closure. DeliveryOptions is copied per
  // engine run, so the profile table rides in a shared immutable block
  // rather than being duplicated into every std::function copy.
  if (!scenario.profiles.empty()) {
    struct EdgeTable {
      std::vector<LinkProfile> profiles;
      std::map<std::size_t, std::size_t> access;
      std::optional<std::size_t> fallback;
      wire::ChannelConfig base;

      const LinkProfile* lookup(std::size_t peer) const {
        const auto it = access.find(peer);
        if (it != access.end()) return &profiles[it->second];
        if (fallback) return &profiles[*fallback];
        return nullptr;
      }
    };
    auto table = std::make_shared<const EdgeTable>(
        EdgeTable{scenario.profiles, scenario.access, scenario.access_default,
                  options.link});
    options.link_config = [table](std::size_t sender, std::size_t receiver) {
      return compose_edge(table->lookup(sender), table->lookup(receiver),
                          table->base);
    };
  }

  auto plan = std::make_shared<FaultPlan>(scenario.faults);
  plan->joins = generate_arrivals(scenario.arrivals);
  for (const auto& join : plan->joins) compiled.total_joins += join.count;
  if (!plan->empty()) options.faults = plan;

  for (const auto& crash : plan->crashes) {
    compiled.last_fault_tick = std::max(compiled.last_fault_tick, crash.at);
  }
  for (const auto& restart : plan->restarts) {
    compiled.last_fault_tick = std::max(compiled.last_fault_tick, restart.at);
  }
  for (const auto& stall : plan->stalls) {
    compiled.last_fault_tick = std::max(compiled.last_fault_tick, stall.until);
  }
  for (const auto& join : plan->joins) {
    compiled.last_fault_tick = std::max(compiled.last_fault_tick, join.at);
  }
  for (const auto& blackout : plan->blackouts) {
    compiled.last_fault_tick =
        std::max(compiled.last_fault_tick, blackout.until);
  }
  compiled.options = std::move(options);
  return compiled;
}

GateVerdict evaluate_gates(const ScenarioOutcome& outcome,
                           const CompiledScenario& compiled) {
  GateVerdict verdict;
  const std::uint64_t deadline = compiled.gates.deadline_ticks > 0
                                     ? compiled.gates.deadline_ticks
                                     : compiled.max_ticks;
  verdict.survivors_completed = true;
  verdict.deadline_met = true;
  for (std::size_t p = 0; p < outcome.peer_count; ++p) {
    if (outcome.down_at_end[p]) continue;  // crashed without restart
    if (outcome.completion_ticks[p] == 0) {
      verdict.survivors_completed = false;
      verdict.deadline_met = false;
    } else if (outcome.completion_ticks[p] > deadline) {
      verdict.deadline_met = false;
    }
  }
  verdict.failures_within_budget =
      outcome.failed_sessions <= compiled.gates.max_failed_sessions;
  verdict.control_within_budget =
      compiled.gates.control_budget_bytes == 0 ||
      outcome.control_bytes <= compiled.gates.control_budget_bytes;
  return verdict;
}

ScenarioOutcome harvest_scenario(const ShardedDelivery& engine) {
  ScenarioOutcome outcome;
  outcome.peer_count = engine.peer_count();
  for (std::size_t p = 0; p < outcome.peer_count; ++p) {
    outcome.completion_ticks.push_back(engine.peer_completion_tick(p));
    outcome.down_at_end.push_back(engine.peer_down(p));
    outcome.failed_sessions += engine.session_result(p).failed_peers.size();
  }
  const auto totals = engine.link_totals();
  outcome.control_bytes = totals.control_bytes;
  outcome.data_bytes = totals.data_bytes;
  outcome.data_frames = totals.data_frames;
  outcome.end_tick = engine.ticks();
  outcome.ticks_skipped = engine.ticks_skipped();
  return outcome;
}

void seed_scenario_peers(ShardedDelivery& engine,
                         const CompiledScenario& compiled) {
  for (std::size_t p = 0; p < compiled.peers; ++p) {
    engine.add_peer("peer" + std::to_string(p), p < compiled.fed);
  }
}

std::vector<std::string> list_scenario_files(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("scenario catalog directory not found: " + dir);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  if (files.empty()) {
    throw std::runtime_error("scenario catalog is empty: " + dir);
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace icd::core
