#pragma once

#include <cstddef>

/// Packet-size accounting.
///
/// The paper sizes all of its control traffic against 1 KB packets: a
/// min-wise sketch "fits into a single 1KB packet", Bloom filters for 10,000
/// packets fit "into five 1 KB packets", etc. These helpers count messages
/// in that unit; the simulated and real transports (wire::Transport) do the
/// actual fragmentation, against each link's own MTU.
namespace icd::util {

/// The paper's control-message MTU.
inline constexpr std::size_t kPacketPayloadBytes = 1024;

/// Number of packets a message of `bytes` bytes occupies.
constexpr std::size_t packets_for(std::size_t bytes,
                                  std::size_t mtu = kPacketPayloadBytes) {
  return bytes == 0 ? 0 : (bytes + mtu - 1) / mtu;
}

}  // namespace icd::util
