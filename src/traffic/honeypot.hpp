// AmpPot-style amplification honeypot (§III-C).
//
// The honeypot emulates a vulnerable reflector inside the experiment
// prefix: it never serves legitimate traffic, so every query it receives is
// spoofed (scanning or attack). It tallies traffic per ingress peering
// link — the signal the localization techniques correlate with catchments —
// and rate-limits emulated responses so it does not itself contribute to
// attacks (the AmpPot design requirement the paper's footnote discusses).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "fault/fault.hpp"
#include "netcore/packet.hpp"
#include "traffic/amplification.hpp"

namespace spooftrack::traffic {

struct HoneypotOptions {
  /// Emulated responses per second (token bucket); AmpPot keeps this low.
  double response_rate_limit_pps = 10.0;
  /// Minimum sustained packets from one victim to classify as an attack
  /// (fewer looks like scanning).
  std::uint64_t attack_min_packets = 100;
};

class AmpPotHoneypot {
 public:
  AmpPotHoneypot(std::size_t link_count, HoneypotOptions options = {});

  /// Ingests one packet arriving on `link` at `timestamp` seconds.
  /// Malformed datagrams (bad IPv4 checksum, not UDP, a UDP header
  /// shorter than 8 bytes or a UDP length past the datagram) are counted
  /// separately and otherwise ignored; each packet is parsed once.
  /// Timestamps need not be monotone (multi-link capture merge): victim
  /// windows are min/max-merged and the response token bucket never
  /// rewinds; out-of-order arrivals are counted.
  void receive(bgp::LinkId link, const netcore::Datagram& datagram,
               double timestamp);

  /// Installs a fault source (not owned; may be nullptr to disable) with a
  /// per-honeypot salt. Faults model the capture pipeline in front of the
  /// honeypot: per ingest sequence number, a *drop* loses the packet
  /// before any processing (not counted as malformed) and a *duplicate*
  /// delivers it twice (capture merge artifact). Sequence numbers count
  /// receive() calls, so a fault schedule depends only on arrival order.
  void set_fault_injector(const fault::FaultInjector* injector,
                          std::uint64_t salt) noexcept {
    faults_ = injector;
    fault_salt_ = salt;
  }
  std::uint64_t fault_dropped() const noexcept { return fault_dropped_; }
  std::uint64_t fault_duplicated() const noexcept {
    return fault_duplicated_;
  }

  std::uint64_t packets_on(bgp::LinkId link) const noexcept;
  std::uint64_t bytes_on(bgp::LinkId link) const noexcept;
  std::uint64_t total_packets() const noexcept;
  std::uint64_t malformed_packets() const noexcept { return malformed_; }
  /// Packets whose timestamp preceded an already-processed packet's.
  std::uint64_t out_of_order_packets() const noexcept {
    return out_of_order_;
  }

  /// Per-link share of received packets (sums to 1 when any arrived).
  std::vector<double> volume_by_link() const;

  /// Response accounting under the rate limit.
  std::uint64_t responses_sent() const noexcept { return responses_sent_; }
  std::uint64_t responses_suppressed() const noexcept {
    return responses_suppressed_;
  }
  /// Bytes the rate limiter prevented from being reflected at victims.
  std::uint64_t reflection_bytes_avoided() const noexcept {
    return reflection_avoided_;
  }

  struct VictimStats {
    netcore::Ipv4Addr victim;
    std::uint64_t packets = 0;
    double first_seen = 0;
    double last_seen = 0;
  };
  /// Victims (spoofed sources) whose packet count crosses the attack
  /// threshold, ordered by packet count descending.
  std::vector<VictimStats> attacks() const;

 private:
  void ingest(bgp::LinkId link, const netcore::Datagram& datagram,
              double timestamp);

  HoneypotOptions options_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> bytes_;
  const fault::FaultInjector* faults_ = nullptr;
  std::uint64_t fault_salt_ = 0;
  std::uint64_t ingest_seq_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_duplicated_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t responses_suppressed_ = 0;
  std::uint64_t reflection_avoided_ = 0;

  // Token bucket for response rate limiting.
  double bucket_tokens_ = 0;
  double bucket_updated_ = 0;

  std::unordered_map<std::uint32_t, VictimStats> victims_;
};

}  // namespace spooftrack::traffic
