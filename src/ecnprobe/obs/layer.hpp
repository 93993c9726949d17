// Which layer of the stack acted on a packet. Shared between the drop
// ledger (attribution counts) and the flight recorder (span events), so
// a ledger count and the recorder event describing the same discard name
// the same layer.
#pragma once

#include <cstdint>
#include <string_view>

namespace ecnprobe::obs {

/// Which layer of the stack dropped (or rewrote) the packet.
enum class Layer : std::uint8_t {
  Link,       ///< physical link: random loss, interface down
  Policy,     ///< a PacketPolicy verdict on some interface
  Router,     ///< routing: TTL expiry, no route
  Host,       ///< end-host delivery: no socket, bad checksum
  App,        ///< application service: offline, rate limiting
  Measure,    ///< the measurement harness: probe gave up
};
inline constexpr std::size_t kLayerCount = 6;

std::string_view to_string(Layer layer);

}  // namespace ecnprobe::obs
