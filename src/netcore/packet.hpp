// Minimal IPv4 + UDP wire formats. The spoofed-traffic substrate builds
// actual byte-accurate datagrams (forged source address and all) so the
// honeypot and the valid-source classifier operate on real packets, not on
// abstract tuples.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netcore/ipv4.hpp"

namespace spooftrack::netcore {

inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::size_t kIpv4HeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t total_length = kIpv4HeaderBytes;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kProtoUdp;
  Ipv4Addr source;
  Ipv4Addr destination;

  /// Serializes a 20-byte header (no options) with a valid checksum.
  void serialize(std::span<std::uint8_t, kIpv4HeaderBytes> out) const noexcept;

  /// Parses and checksum-verifies a header; nullopt on malformed input.
  static std::optional<Ipv4Header> parse(
      std::span<const std::uint8_t> data) noexcept;
};

struct UdpHeader {
  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::uint16_t length = kUdpHeaderBytes;
  std::uint16_t checksum = 0;  // filled by serialize

  void serialize(std::span<std::uint8_t, kUdpHeaderBytes> out,
                 Ipv4Addr src, Ipv4Addr dst,
                 std::span<const std::uint8_t> payload) const noexcept;

  static std::optional<UdpHeader> parse(
      std::span<const std::uint8_t> data) noexcept;

  /// Verifies the UDP checksum against the IPv4 pseudo-header.
  static bool verify(std::span<const std::uint8_t> datagram, Ipv4Addr src,
                     Ipv4Addr dst) noexcept;
};

/// A parsed UDP-in-IPv4 datagram. The payload points into the datagram.
struct UdpDatagramView {
  Ipv4Header ip;
  UdpHeader udp;
  std::span<const std::uint8_t> payload;
};

/// A fully formed IPv4 datagram. Datagrams of up to kInlineBytes (every
/// amplification query: SSDP's is the largest at 118 bytes) live inside
/// the object; only larger ones allocate. The spans bytes(), ip_payload()
/// and parse_udp()'s payload point into the object: they end when it is
/// destroyed or moved from.
class Datagram {
 public:
  static constexpr std::size_t kInlineBytes = 128;

  Datagram() = default;

  /// Builds a datagram with valid lengths and checksums.
  static Datagram make_udp(Ipv4Addr src, Ipv4Addr dst,
                           std::uint16_t src_port, std::uint16_t dst_port,
                           std::span<const std::uint8_t> payload,
                           std::uint8_t ttl = 64);

  /// Builds a raw IPv4 datagram with an arbitrary protocol payload (used
  /// by the ICMP echo support in netcore/icmp.hpp).
  static Datagram make_raw(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                           std::span<const std::uint8_t> payload,
                           std::uint8_t ttl = 64);

  std::span<const std::uint8_t> bytes() const noexcept {
    return heap_.empty() ? std::span<const std::uint8_t>(inline_.data(), size_)
                         : std::span<const std::uint8_t>(heap_);
  }

  /// Parses the IPv4 header; nullopt when truncated or corrupted.
  std::optional<Ipv4Header> ip() const noexcept;
  /// Parses the IPv4 header once, then the UDP header and payload from the
  /// same bytes; nullopt when the IPv4 header is invalid, the protocol is
  /// not UDP or the UDP header is truncated.
  std::optional<UdpDatagramView> parse_udp() const noexcept;

  /// Raw IPv4 payload view (everything after the header, any protocol;
  /// empty when the IPv4 header is invalid).
  std::span<const std::uint8_t> ip_payload() const noexcept;

  /// Decrements TTL in place, re-computing the IPv4 checksum. Returns false
  /// (and leaves the packet unchanged) when the TTL would reach zero.
  bool forward_hop() noexcept;

 private:
  friend class UdpTemplate;

  /// Sizes the datagram to `size` bytes and returns them for writing.
  std::uint8_t* resize(std::size_t size);
  std::uint8_t* data() noexcept {
    return heap_.empty() ? inline_.data() : heap_.data();
  }

  // A datagram of up to kInlineBytes keeps its size_ bytes in inline_ and
  // leaves heap_ empty; a larger one lives in heap_ with size_ 0. A
  // moved-from datagram is thus unchanged (inline) or empty (heap), never
  // a size without its bytes.
  std::uint8_t size_ = 0;
  std::array<std::uint8_t, kInlineBytes> inline_{};
  std::vector<std::uint8_t> heap_;
};

/// One flow's UDP datagrams: every byte but the source port and the UDP
/// checksum is fixed, so the datagram is built once with port 0 together
/// with the unfolded 32-bit sum of its pseudo-header, UDP header and
/// payload. make(port) copies the bytes, writes the port and finishes that
/// sum plus the port, which is exactly the sum Datagram::make_udp folds:
/// the result equals make_udp with the same arguments byte for byte.
class UdpTemplate {
 public:
  UdpTemplate(Ipv4Addr src, Ipv4Addr dst, std::uint16_t dst_port,
              std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);

  Datagram make(std::uint16_t src_port) const;

 private:
  Datagram base_;
  std::uint32_t partial_sum_ = 0;
};

}  // namespace spooftrack::netcore
