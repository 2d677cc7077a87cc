#pragma once

#include <cstdint>

#include "core/endpoint.hpp"
#include "util/packet.hpp"

/// An informed peer-to-peer transfer session (the full protocol of
/// Sections 3-5 between two Peers, with real payloads).
///
/// This is a thin compatibility façade over a SenderEndpoint /
/// ReceiverEndpoint pair wired back-to-back on a perfect in-process Pipe:
/// the protocol itself runs entirely through wire frames (see
/// core/endpoint.hpp and DESIGN.md), so SessionStats reports *exact*
/// control-plane costs measured from the encoded frames — including the
/// packetization of summaries that exceed the paper's 1 KB packet MTU.
///
///   1. *Estimate* — the peers exchange min-wise sketches and estimate
///      working-set containment.
///   2. *Summarize* — per the strategy, the receiver ships a Bloom filter
///      or ART summary of its working set.
///   3. *Transfer* — the sender streams symbols chosen by the strategy
///      (random / filtered / recoded), and the receiver's stacked decoders
///      absorb them.
///
/// Control traffic flows once, at handshake ("we never send updates to our
/// Bloom filter"). Callers that need loss, reordering or per-link MTUs
/// should drive the endpoints directly over a ChannelLink instead.
namespace icd::core {

/// The façade pipe's MTU: the paper's 1 KB control packet.
inline constexpr std::size_t kSessionPipeMtu = util::kPacketPayloadBytes;

class InformedSession {
 public:
  /// Both peers must share code parameters. The session holds references;
  /// the peers must outlive it.
  InformedSession(Peer& sender, Peer& receiver, SessionOptions options);

  /// The endpoints hold references into the session's pipe: copying or
  /// moving would silently alias (then dangle) it.
  InformedSession(const InformedSession&) = delete;
  InformedSession& operator=(const InformedSession&) = delete;

  /// Runs the estimate + summarize phases. Must be called before step().
  void handshake();

  /// Transfers one symbol; returns the number of new encoded symbols the
  /// receiver gained from it.
  std::size_t step();

  /// Steps until the receiver holds `target_symbols` distinct encoded
  /// symbols, it can decode the content, or `max_transmissions` is hit.
  /// Returns the accumulated stats.
  const SessionStats& run(std::size_t target_symbols,
                          std::size_t max_transmissions);

  const SessionStats& stats() const { return stats_; }

  /// The two ends of the session's pipe, exposed for byte-level inspection
  /// (frame observers, transport stats).
  wire::Transport& sender_transport() { return pipe_.a(); }
  wire::Transport& receiver_transport() { return pipe_.b(); }

 private:
  void refresh_stats();

  wire::Pipe pipe_;
  SenderEndpoint sender_;
  ReceiverEndpoint receiver_;
  bool handshaken_ = false;
  SessionStats stats_;
};

}  // namespace icd::core
