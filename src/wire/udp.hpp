#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/random.hpp"
#include "wire/transport.hpp"

/// Real-network backend: the wire::Transport contract over non-blocking UDP.
///
/// Everything above this layer — endpoints, fragmentation, byte accounting
/// — is inherited unchanged from Transport, so a SenderEndpoint speaking
/// through a UdpTransport produces byte-for-byte the same datagram stream
/// as the same endpoint over an in-process Pipe with the same MTU. That
/// equivalence is what lets the multi-process swarm harness cross-check
/// real runs against the simulator's prediction (see DESIGN.md,
/// "Real-network backend").
///
/// The backend batches syscalls, not frames (each datagram carries one
/// frame): receive drains the socket with recvmmsg-sized bursts into pooled
/// buffers, and sends the kernel refused with EAGAIN are queued and flushed
/// with sendmmsg on the next pump(). Loopback smoke runs never hit either slow
/// path, but a congested or netem-shaped link exercises both.
namespace icd::wire {

/// RAII wrapper for one non-blocking, connected UDP socket.
///
/// UDP "connect" only pins the default destination and filters inbound
/// datagrams by source — there is no handshake — so bind-then-connect is
/// safe before the far process exists. The price is asynchronous
/// ECONNREFUSED from ICMP port-unreachable, which UdpTransport absorbs as
/// link loss.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Creates a non-blocking socket bound to address:port (port 0 picks an
  /// ephemeral port; read it back with local_port). Throws std::system_error
  /// on failure.
  static UdpSocket bind(const std::string& address, std::uint16_t port);

  /// Pins the default peer for send() and filters inbound datagrams.
  void connect(const std::string& address, std::uint16_t port);

  /// Grows SO_RCVBUF/SO_SNDBUF (best effort; the kernel may clamp).
  void set_buffer_sizes(int bytes);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t local_port() const;

  void close();

 private:
  int fd_ = -1;
};

/// Backend-level counters, beneath the exact frame/byte accounting the base
/// Transport keeps.
struct UdpTransportStats {
  std::size_t datagrams_sent = 0;
  std::size_t datagrams_received = 0;
  /// recvmmsg-style bursts that returned at least one datagram.
  std::size_t recv_batches = 0;
  /// Sends the kernel refused with EAGAIN, queued for a later pump().
  std::size_t deferred_sends = 0;
  /// Backlogged datagrams dropped oldest-first when the deferred queue hit
  /// its cap — the link "lost" them, the same contract as a LossyChannel
  /// drop (sent and byte-counted above).
  std::size_t backlog_dropped = 0;
  /// Sends the network stack swallowed (ICMP port-unreachable from a peer
  /// not yet bound, or already gone) — also charged as link loss.
  std::size_t refused_sends = 0;
  /// Inbound datagrams larger than the MTU, dropped before decode.
  std::size_t truncated_datagrams = 0;
  /// Inbound datagrams dropped by set_loss_injection (fault testing).
  std::size_t injected_drops = 0;
  /// Inbound datagrams held back by set_delay_shaping before delivery.
  std::size_t delayed_datagrams = 0;
};

/// wire::Transport over one connected UDP socket.
///
/// Single-threaded like every Transport: drain(), pump() and the inherited
/// send/receive surface must be called from the owning thread. The pooled
/// receive path mirrors Pipe's: drain() resizes a pooled buffer to mtu+1
/// (the extra byte detects truncation), recv()s into it, shrinks it to the
/// datagram length and queues it; receive_frame() decodes it as one frame
/// and returns it to the pool on the next take.
class UdpTransport : public Transport {
 public:
  /// Takes ownership of a bound (and usually connected) socket. A null pool
  /// gets a private one — UDP ends live in different processes, so unlike
  /// Pipe there is no pool to share across the link.
  UdpTransport(UdpSocket socket, std::size_t mtu,
               std::shared_ptr<BufferPool> pool = nullptr);
  ~UdpTransport() override;

  /// The fd for poll() (run_swarm_node watches it).
  int fd() const { return socket_.fd(); }
  std::uint16_t local_port() const { return socket_.local_port(); }

  /// Pulls every deliverable datagram out of the socket into the receive
  /// queue (bursts of kBurst at a time). Returns how many arrived. Safe to
  /// call opportunistically; next_datagram() also drains on demand.
  std::size_t drain();

  /// Retries EAGAIN-deferred datagrams with one sendmmsg-style burst.
  /// Returns true when the backlog is empty afterwards.
  bool pump();

  /// No deferred sends waiting on the kernel.
  bool tx_idle() const { return tx_backlog_.empty(); }

  /// Socket-level loss injection: each inbound datagram is independently
  /// dropped with probability `rate` before it reaches the receive queue —
  /// real-network fault testing without netem privileges. Deterministic
  /// per (rate, seed); 0 disables.
  void set_loss_injection(double rate, std::uint64_t seed) {
    rx_loss_rate_ = rate;
    rx_loss_rng_ = util::Xoshiro256(seed);
  }

  /// Socket-level delay shaping: each inbound datagram is held for
  /// `delay_us` plus a uniform jitter draw in [0, jitter_us] microseconds
  /// of wall time before next_datagram() will surface it. Release times
  /// are kept monotone (a FIFO delay line, not a reorderer). Scenario
  /// link-profile emulation without netem privileges; 0/0 disables.
  void set_delay_shaping(std::uint64_t delay_us, std::uint64_t jitter_us,
                         std::uint64_t seed) {
    rx_delay_us_ = delay_us;
    rx_jitter_us_ = jitter_us;
    rx_delay_rng_ = util::Xoshiro256(seed);
  }

  /// Caps the EAGAIN-deferred send queue (drop-oldest on overflow, counted
  /// in backlog_dropped). Clamped to >= 1; defaults to kMaxBacklog.
  void set_max_backlog(std::size_t cap) {
    max_backlog_ = cap > 0 ? cap : std::size_t{1};
  }
  std::size_t max_backlog() const { return max_backlog_; }

  /// Test seam: the next `n` datagram transmissions (direct sends and
  /// pump() retries alike) fail as if the kernel returned EAGAIN, forcing
  /// the deferred-send backlog path without needing a saturated socket.
  void debug_force_eagain(std::size_t n) { debug_eagain_sends_ = n; }

  const UdpTransportStats& udp_stats() const { return udp_stats_; }

  /// Datagrams recv() may burst per drain() round and sends per pump().
  static constexpr std::size_t kBurst = 16;
  /// Deferred datagrams kept before the oldest is dropped as link loss.
  static constexpr std::size_t kMaxBacklog = 1024;

 protected:
  bool send_datagram(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> next_datagram() override;

 private:
  bool transmit(const std::vector<std::uint8_t>& frame);
  /// Queues one arrived datagram, stamping its shaped release time.
  void admit_rx(std::vector<std::uint8_t> frame);

  struct RxEntry {
    /// Wall-clock release deadline in steady-clock microseconds; 0 when
    /// shaping is off (deliverable immediately).
    std::uint64_t release_us = 0;
    std::vector<std::uint8_t> frame;
  };

  UdpSocket socket_;
  std::deque<RxEntry> rx_;
  std::deque<std::vector<std::uint8_t>> tx_backlog_;
  UdpTransportStats udp_stats_;
  std::size_t max_backlog_ = kMaxBacklog;
  double rx_loss_rate_ = 0.0;
  util::Xoshiro256 rx_loss_rng_{0};
  std::uint64_t rx_delay_us_ = 0;
  std::uint64_t rx_jitter_us_ = 0;
  std::uint64_t rx_last_release_us_ = 0;
  util::Xoshiro256 rx_delay_rng_{0};
  std::size_t debug_eagain_sends_ = 0;
};

}  // namespace icd::wire
