#include "netcore/packet.hpp"

#include <array>
#include <cstring>

#include "netcore/checksum.hpp"

namespace spooftrack::netcore {

namespace {

void put16(std::uint8_t* out, std::uint16_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value >> 8);
  out[1] = static_cast<std::uint8_t>(value);
}

void put32(std::uint8_t* out, std::uint32_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

std::uint16_t get16(const std::uint8_t* in) noexcept {
  return static_cast<std::uint16_t>((std::uint16_t{in[0]} << 8) | in[1]);
}

std::uint32_t get32(const std::uint8_t* in) noexcept {
  return (std::uint32_t{in[0]} << 24) | (std::uint32_t{in[1]} << 16) |
         (std::uint32_t{in[2]} << 8) | std::uint32_t{in[3]};
}

std::uint32_t pseudo_header_sum(Ipv4Addr src, Ipv4Addr dst,
                                std::uint16_t udp_length) noexcept {
  std::array<std::uint8_t, 12> pseudo{};
  put32(pseudo.data(), src.value());
  put32(pseudo.data() + 4, dst.value());
  pseudo[8] = 0;
  pseudo[9] = kProtoUdp;
  put16(pseudo.data() + 10, udp_length);
  return checksum_accumulate(pseudo);
}

}  // namespace

void Ipv4Header::serialize(
    std::span<std::uint8_t, kIpv4HeaderBytes> out) const noexcept {
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = tos;
  put16(out.data() + 2, total_length);
  put16(out.data() + 4, identification);
  put16(out.data() + 6, 0);  // flags + fragment offset
  out[8] = ttl;
  out[9] = protocol;
  put16(out.data() + 10, 0);  // checksum placeholder
  put32(out.data() + 12, source.value());
  put32(out.data() + 16, destination.value());
  const std::uint16_t sum = internet_checksum(out);
  put16(out.data() + 10, sum);
}

std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> data) noexcept {
  if (data.size() < kIpv4HeaderBytes) return std::nullopt;
  if (data[0] != 0x45) return std::nullopt;  // options unsupported
  if (internet_checksum(data.first(kIpv4HeaderBytes)) != 0) {
    return std::nullopt;
  }
  Ipv4Header h;
  h.tos = data[1];
  h.total_length = get16(data.data() + 2);
  h.identification = get16(data.data() + 4);
  h.ttl = data[8];
  h.protocol = data[9];
  h.source = Ipv4Addr{get32(data.data() + 12)};
  h.destination = Ipv4Addr{get32(data.data() + 16)};
  if (h.total_length < kIpv4HeaderBytes || h.total_length > data.size()) {
    return std::nullopt;
  }
  return h;
}

void UdpHeader::serialize(std::span<std::uint8_t, kUdpHeaderBytes> out,
                          Ipv4Addr src, Ipv4Addr dst,
                          std::span<const std::uint8_t> payload)
    const noexcept {
  put16(out.data(), source_port);
  put16(out.data() + 2, destination_port);
  const auto udp_len =
      static_cast<std::uint16_t>(kUdpHeaderBytes + payload.size());
  put16(out.data() + 4, udp_len);
  put16(out.data() + 6, 0);  // checksum placeholder
  std::uint32_t acc = pseudo_header_sum(src, dst, udp_len);
  acc = checksum_accumulate(out, acc);
  acc = checksum_accumulate(payload, acc);
  std::uint16_t sum = checksum_finish(acc);
  if (sum == 0) sum = 0xFFFF;  // RFC 768: transmitted zero means "no checksum"
  put16(out.data() + 6, sum);
}

std::optional<UdpHeader> UdpHeader::parse(
    std::span<const std::uint8_t> data) noexcept {
  if (data.size() < kUdpHeaderBytes) return std::nullopt;
  UdpHeader h;
  h.source_port = get16(data.data());
  h.destination_port = get16(data.data() + 2);
  h.length = get16(data.data() + 4);
  h.checksum = get16(data.data() + 6);
  if (h.length < kUdpHeaderBytes || h.length > data.size()) {
    return std::nullopt;
  }
  return h;
}

bool UdpHeader::verify(std::span<const std::uint8_t> datagram, Ipv4Addr src,
                       Ipv4Addr dst) noexcept {
  const auto header = parse(datagram);
  if (!header) return false;
  if (header->checksum == 0) return true;  // checksum not used
  std::uint32_t acc = pseudo_header_sum(src, dst, header->length);
  acc = checksum_accumulate(datagram.first(header->length), acc);
  return checksum_finish(acc) == 0;
}

Datagram Datagram::make_udp(Ipv4Addr src, Ipv4Addr dst,
                            std::uint16_t src_port, std::uint16_t dst_port,
                            std::span<const std::uint8_t> payload,
                            std::uint8_t ttl) {
  Datagram d;
  const std::size_t size =
      kIpv4HeaderBytes + kUdpHeaderBytes + payload.size();
  std::uint8_t* out = d.resize(size);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(size);
  ip.ttl = ttl;
  ip.source = src;
  ip.destination = dst;
  ip.serialize(std::span<std::uint8_t, kIpv4HeaderBytes>(out,
                                                         kIpv4HeaderBytes));

  UdpHeader udp;
  udp.source_port = src_port;
  udp.destination_port = dst_port;
  udp.serialize(std::span<std::uint8_t, kUdpHeaderBytes>(
                    out + kIpv4HeaderBytes, kUdpHeaderBytes),
                src, dst, payload);

  if (!payload.empty()) {
    std::memcpy(out + kIpv4HeaderBytes + kUdpHeaderBytes, payload.data(),
                payload.size());
  }
  return d;
}

Datagram Datagram::make_raw(Ipv4Addr src, Ipv4Addr dst,
                            std::uint8_t protocol,
                            std::span<const std::uint8_t> payload,
                            std::uint8_t ttl) {
  Datagram d;
  const std::size_t size = kIpv4HeaderBytes + payload.size();
  std::uint8_t* out = d.resize(size);
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(size);
  ip.ttl = ttl;
  ip.protocol = protocol;
  ip.source = src;
  ip.destination = dst;
  ip.serialize(std::span<std::uint8_t, kIpv4HeaderBytes>(out,
                                                         kIpv4HeaderBytes));
  if (!payload.empty()) {
    std::memcpy(out + kIpv4HeaderBytes, payload.data(), payload.size());
  }
  return d;
}

std::uint8_t* Datagram::resize(std::size_t size) {
  if (size <= kInlineBytes) {
    heap_.clear();
    size_ = static_cast<std::uint8_t>(size);
    return inline_.data();
  }
  size_ = 0;
  heap_.resize(size);
  return heap_.data();
}

std::optional<Ipv4Header> Datagram::ip() const noexcept {
  return Ipv4Header::parse(bytes());
}

std::span<const std::uint8_t> Datagram::ip_payload() const noexcept {
  const auto header = ip();
  if (!header) return {};
  return bytes().subspan(kIpv4HeaderBytes,
                         header->total_length - kIpv4HeaderBytes);
}

std::optional<UdpDatagramView> Datagram::parse_udp() const noexcept {
  const auto data = bytes();
  const auto ip = Ipv4Header::parse(data);
  if (!ip || ip->protocol != kProtoUdp) return std::nullopt;
  const auto udp = UdpHeader::parse(data.subspan(kIpv4HeaderBytes));
  if (!udp) return std::nullopt;
  return UdpDatagramView{
      *ip, *udp,
      data.subspan(kIpv4HeaderBytes + kUdpHeaderBytes,
                   udp->length - kUdpHeaderBytes)};
}

std::optional<UdpHeader> Datagram::udp() const noexcept {
  const auto view = parse_udp();
  if (!view) return std::nullopt;
  return view->udp;
}

std::span<const std::uint8_t> Datagram::payload() const noexcept {
  const auto view = parse_udp();
  if (!view) return {};
  return view->payload;
}

bool Datagram::forward_hop() noexcept {
  if (bytes().size() < kIpv4HeaderBytes) return false;
  std::uint8_t* header = data();
  if (header[8] <= 1) return false;
  header[8] -= 1;
  header[10] = header[11] = 0;
  const std::uint16_t sum = internet_checksum(
      std::span<const std::uint8_t>(header, kIpv4HeaderBytes));
  put16(header + 10, sum);
  return true;
}

UdpTemplate::UdpTemplate(Ipv4Addr src, Ipv4Addr dst, std::uint16_t dst_port,
                         std::span<const std::uint8_t> payload,
                         std::uint8_t ttl)
    : base_(Datagram::make_udp(src, dst, 0, dst_port, payload, ttl)) {
  // The sum UdpHeader::serialize folds, taken with the source port and the
  // checksum field both zero.
  std::uint8_t* udp = base_.data() + kIpv4HeaderBytes;
  put16(udp + 6, 0);
  partial_sum_ = pseudo_header_sum(src, dst, get16(udp + 4));
  partial_sum_ = checksum_accumulate(
      std::span<const std::uint8_t>(udp, kUdpHeaderBytes), partial_sum_);
  partial_sum_ = checksum_accumulate(payload, partial_sum_);
}

Datagram UdpTemplate::make(std::uint16_t src_port) const {
  Datagram d = base_;
  std::uint8_t* udp = d.data() + kIpv4HeaderBytes;
  put16(udp, src_port);
  // Exact integer arithmetic: the port is the header's first 16-bit word.
  std::uint16_t sum = checksum_finish(partial_sum_ + src_port);
  if (sum == 0) sum = 0xFFFF;  // RFC 768, as UdpHeader::serialize does
  put16(udp + 6, sum);
  return d;
}

}  // namespace spooftrack::netcore
