#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/symbol.hpp"
#include "core/delivery.hpp"
#include "core/endpoint.hpp"
#include "core/peer.hpp"
#include "overlay/strategy.hpp"
#include "wire/transport.hpp"
#include "wire/udp.hpp"

/// Multi-process swarm runs and their simulator cross-check.
///
/// A swarm is N peers exchanging symbols pairwise over directed edges, each
/// peer a separate OS process speaking real UDP (examples/swarm_node.cpp).
/// The scientific claim of the real-network backend is *byte equivalence*:
/// because endpoints are substrate-agnostic, the exact control/data bytes a
/// real swarm puts on the wire are predictable by running the identical
/// protocol script over in-process Pipes. This header is where that claim
/// is made testable — one SwarmSpec, one deterministic initial condition
/// (SwarmWorld), one per-edge service script, consumed by both the
/// predictor (predict_swarm) and the per-process runtime (run_swarm_node),
/// so tools/swarm_harness can diff the two down to the byte.
///
/// What makes the prediction exact on a loss-free loopback (the reasoning
/// lives in DESIGN.md, "Real-network backend"):
///   * preloads are derived from the spec seed, never from live traffic —
///     every process regenerates the identical universe locally;
///   * each node serves uploads from a frozen preload-state replica of its
///     peer (one admission epoch), so nothing a sender puts on the wire
///     depends on arrival timing;
///   * flow control is off and each sender serves exactly the edge quota,
///     so data-plane totals are quota-bound, not timing-bound;
///   * handshake retry cadences are far above loopback RTT, so the control
///     plane is the minimal bundle + reply in both modes.
namespace icd::core {

/// One directed transfer edge: `receiver` downloads from `sender` over a
/// dedicated UDP socket pair (each half binds its own port).
struct SwarmEdge {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  std::uint16_t sender_port = 0;
  std::uint16_t receiver_port = 0;
};

/// One named real-network access class (the scenario engine's LinkProfile,
/// in wall-clock units): inbound shaping applied at a node's own sockets —
/// socket-level loss injection plus a FIFO delay line — and mirrored by
/// the predictor as per-edge ChannelLink shaping. With any shaping active
/// the byte-equality cross-check degrades to completion + distributional
/// agreement (completion-tick and retry bands), the harness's shaped mode.
struct SwarmLinkProfile {
  std::string name;
  double loss = 0.0;  // inbound datagram loss probability
  std::uint64_t delay_us = 0;
  std::uint64_t jitter_us = 0;
};

/// The whole experiment in one small text config (`key value` lines plus
/// one `edge <sender> <receiver> <sender_port> <receiver_port>` line per
/// edge) shared verbatim by every process and the predictor.
struct SwarmSpec {
  std::size_t nodes = 4;
  std::size_t n = 120;          // blocks to recover
  std::size_t block_size = 64;  // bytes per block
  double stretch = 1.5;         // distinct symbols = stretch * n
  double correlation = 0.2;     // shared fraction of each preload
  std::uint64_t seed = 0x5aa77a11;
  overlay::Strategy strategy = overlay::Strategy::kRecodeBloom;
  std::size_t mtu = 1400;
  /// Data-frame send attempts per edge per tick (pacing only; totals are
  /// quota-bound).
  std::size_t symbols_per_tick = 16;
  /// Far above loopback RTT so neither mode ever retries the handshake.
  std::size_t handshake_retry_ticks = 2000;
  /// Decoding-overhead factor on each receiver's per-edge request. Higher
  /// than the delivery engines' 1.25 allowance because a swarm run is one
  /// frozen admission epoch: summaries never refresh and quotas never
  /// re-plan, so all decoding overhead must be provisioned up front.
  double request_overhead = 3.0;
  /// Socket-level inbound loss injected at every node's UdpTransport
  /// (UdpTransport::set_loss_injection). With loss the byte-equality
  /// cross-check no longer holds — the harness's --loss mode gates on
  /// completion and bounded retries instead. 0 = off.
  double loss_rate = 0.0;
  /// Handshake retry budget per receiver half
  /// (SessionOptions::max_handshake_retries): a receiver whose sender
  /// never answers fails its session instead of retrying forever, and the
  /// node's run loop abandons that half (reported, not hung). 0 =
  /// unbounded — the historical behavior.
  std::size_t max_handshake_retries = 0;
  /// Real-time tick period for swarm_node's wall-clock loop.
  std::uint64_t tick_us = 1000;
  /// Completion horizon, in ticks, for both modes.
  std::uint64_t max_ticks = 30000;
  std::string host = "127.0.0.1";
  std::vector<SwarmEdge> edges;

  /// Named access classes (`link_profile <name> <loss> <delay_us>
  /// <jitter_us>` lines) and the node -> class assignment (`access
  /// <node|default> <name>`, profiles must be declared first). Unassigned
  /// nodes are unshaped.
  std::vector<SwarmLinkProfile> link_profiles;
  std::map<std::size_t, std::size_t> access;
  std::optional<std::size_t> access_default;

  /// The access class shaping node `id`'s inbound sockets, if any.
  const SwarmLinkProfile* node_profile(std::size_t id) const;
  /// Any node carries non-trivial shaping (=> byte exactness is off).
  bool shaped() const;

  /// Every ordered pair exchanges: node r downloads from every other node,
  /// ports allocated consecutively from `base_port` (two per edge).
  void build_full_mesh(std::uint16_t base_port);

  std::string serialize() const;
  /// Throws std::runtime_error ("SwarmSpec line N: ...") on an unknown or
  /// repeated scalar key, trailing tokens, a negative, non-numeric or
  /// out-of-range integer, a probability outside [0, 1] or stretch < 1.
  static SwarmSpec parse(std::istream& in);
  static SwarmSpec parse_text(const std::string& text);
  static SwarmSpec parse_file(const std::string& path);
};

/// The deterministic initial condition every process regenerates locally
/// from the spec: the encoded-symbol universe, each node's preload id set
/// (indices into the universe), and the distinct-symbol decode target.
struct SwarmWorld {
  codec::CodeParameters params;
  /// Replaced by robust_soliton(n) in build_swarm_world (DegreeDistribution
  /// has no default state).
  codec::DegreeDistribution distribution{std::vector<double>{1.0}};
  std::vector<codec::EncodedSymbol> universe;
  std::vector<std::vector<std::uint64_t>> preload;  // per node
  std::size_t target = 0;
};

SwarmWorld build_swarm_world(const SwarmSpec& spec);

/// Node `id`'s peer, preloaded to its initial condition.
std::unique_ptr<Peer> make_swarm_peer(const SwarmSpec& spec,
                                      const SwarmWorld& world, std::size_t id,
                                      const std::string& name_suffix = "");

/// Symbols edge `e`'s sender serves: the receiver's remaining need times
/// the overhead factor, split across its in-degree (the session planner's
/// allowance rule). Quota-bound totals are what makes prediction exact.
std::size_t swarm_edge_quota(const SwarmSpec& spec, const SwarmWorld& world,
                             std::size_t edge_index);

/// Session options for edge `e` — identical in both modes by construction.
SessionOptions swarm_session_options(const SwarmSpec& spec,
                                     const SwarmWorld& world,
                                     std::size_t edge_index);

/// --- The shared per-edge service script ----------------------------------
/// One tick of each half. The predictor runs both halves of every edge in
/// lockstep; a swarm_node runs only the halves it owns, on the wall clock.
/// Everything a half *sends* is independent of when the other half runs
/// (bundles snapshot preload state, uploads serve a frozen replica, quotas
/// bound the data plane), which is exactly why the split is sound.

/// Sender half: drain + handshake bookkeeping, then serve up to
/// `budget_per_tick` symbols while the quota lasts.
void service_sender_half(SenderEndpoint& sender, std::size_t quota,
                         std::size_t budget_per_tick);

/// Receiver half: advance the retry clock to `now`, drain and absorb.
void service_receiver_half(ReceiverEndpoint& receiver, std::uint64_t now);

/// --- Prediction -----------------------------------------------------------

struct SwarmPrediction {
  bool all_completed = false;
  std::uint64_t ticks = 0;  // lockstep ticks until everyone finished
  std::vector<bool> completed;                  // per node
  std::vector<std::uint64_t> completion_tick;   // per node (0 = never)
  std::vector<std::size_t> final_symbols;       // per node distinct symbols
  /// Per-edge wire totals, both halves summed: the cross-check currency
  /// between predictor and harness.
  std::vector<LinkTotals> edges;
  /// Receiver-half handshake retries summed over all edges (nonzero only
  /// under shaped links, where a lost bundle forces a retry).
  std::size_t handshake_retries = 0;
};

/// The simulator's answer for this spec: the same script over in-process
/// links, every edge in lockstep. Unshaped specs run over perfect Pipes
/// (byte-exact prediction); specs with access profiles run over
/// ChannelLinks carrying each receiving node's loss/delay shaping — the
/// completion-tick and retry figures become the *band centers* the shaped
/// real run is gated against, not byte-exact totals.
SwarmPrediction predict_swarm(const SwarmSpec& spec);

/// --- Real run (one process) ------------------------------------------------

/// Wire totals and backend counters of one locally-owned edge half.
struct SwarmHalfReport {
  std::size_t edge_index = 0;
  bool sender_half = false;
  wire::TransportStats stats;
  wire::UdpTransportStats udp;
  std::size_t symbols_sent = 0;       // sender halves
  std::size_t handshake_retries = 0;  // receiver halves
  /// Receiver half gave up: handshake retry budget exhausted with no
  /// reply (dead or unreachable sender). The node abandons the half and
  /// keeps serving its other edges.
  bool session_failed = false;
  double pool_hit_rate = 0.0;
};

struct SwarmNodeReport {
  std::size_t node = 0;
  bool completed = false;
  std::uint64_t completion_tick = 0;
  std::uint64_t end_tick = 0;
  std::uint64_t ticks_slept = 0;  // wall ticks the poll loop slept across
  double wall_ms = 0.0;
  std::vector<SwarmHalfReport> halves;
};

/// Runs node `id` of the swarm for real: binds one UDP socket per local
/// edge half, signals readiness by creating `ready_file`, blocks until
/// `go_file` exists (the harness's start barrier — bundles must never race
/// an unbound peer socket, or retries would diverge from the prediction),
/// then drives its halves on a wall-clock poll loop until its
/// uploads exhaust their quotas and its download completes (or max_ticks).
/// A non-empty `progress_file` is rewritten periodically with `tick
/// <now> symbols <held> completed <0|1>` so the harness watchdog can tell
/// a slow node from a wedged one.
SwarmNodeReport run_swarm_node(const SwarmSpec& spec, std::size_t id,
                               const std::string& ready_file,
                               const std::string& go_file,
                               const std::string& progress_file = "");

}  // namespace icd::core
