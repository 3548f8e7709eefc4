#include "traffic/honeypot.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace spooftrack::traffic {

AmpPotHoneypot::AmpPotHoneypot(std::size_t link_count,
                               HoneypotOptions options)
    : options_(options),
      packets_(link_count, 0),
      bytes_(link_count, 0),
      bucket_tokens_(options.response_rate_limit_pps) {}

void AmpPotHoneypot::receive(bgp::LinkId link,
                             const netcore::Datagram& datagram,
                             double timestamp) {
  const std::uint64_t seq = ingest_seq_++;
  if (faults_ != nullptr) {
    if (faults_->fires(fault::Site::kHoneypotDrop, fault_salt_, seq)) {
      // The capture pipeline lost the packet before the honeypot saw it:
      // no accounting at all, not even the malformed counter.
      ++fault_dropped_;
      OBS_COUNT("fault.honeypot.dropped", 1);
      return;
    }
    if (faults_->fires(fault::Site::kHoneypotDuplicate, fault_salt_, seq)) {
      ++fault_duplicated_;
      OBS_COUNT("fault.honeypot.duplicated", 1);
      ingest(link, datagram, timestamp);
    }
  }
  ingest(link, datagram, timestamp);
}

void AmpPotHoneypot::ingest(bgp::LinkId link,
                            const netcore::Datagram& datagram,
                            double timestamp) {
  const auto parsed = datagram.parse_udp();
  if (!parsed || link >= packets_.size()) {
    ++malformed_;
    return;
  }
  const netcore::Ipv4Header& ip = parsed->ip;

  ++packets_[link];
  bytes_[link] += ip.total_length;

  auto& victim = victims_[ip.source.value()];
  if (victim.packets == 0) {
    victim.victim = ip.source;
    victim.first_seen = timestamp;
  } else {
    // Capture replay and multi-link merge deliver packets out of order;
    // the observation window must not depend on arrival order.
    victim.first_seen = std::min(victim.first_seen, timestamp);
  }
  ++victim.packets;
  victim.last_seen = std::max(victim.last_seen, timestamp);

  // Emulated response under a token bucket: AmpPot answers slowly enough
  // to look alive to scanners without amplifying real attacks.
  const auto payload = parsed->payload;
  const AmpProtocol protocol =
      payload.empty() ? AmpProtocol::kDnsAny
                      : static_cast<AmpProtocol>(
                            payload[0] %
                            amplification_table().size());
  if (timestamp > bucket_updated_) {
    bucket_tokens_ = std::min(
        options_.response_rate_limit_pps,
        bucket_tokens_ +
            (timestamp - bucket_updated_) * options_.response_rate_limit_pps);
    bucket_updated_ = timestamp;
  } else if (timestamp < bucket_updated_) {
    // Out-of-order arrival: charge the bucket at its current fill instead
    // of rewinding the refill clock (which would double-grant tokens when
    // time catches back up).
    ++out_of_order_;
    OBS_COUNT("traffic.honeypot.out_of_order", 1);
  }
  if (bucket_tokens_ >= 1.0) {
    bucket_tokens_ -= 1.0;
    ++responses_sent_;
  } else {
    ++responses_suppressed_;
    reflection_avoided_ += response_bytes(protocol);
  }
}

std::uint64_t AmpPotHoneypot::packets_on(bgp::LinkId link) const noexcept {
  return link < packets_.size() ? packets_[link] : 0;
}

std::uint64_t AmpPotHoneypot::bytes_on(bgp::LinkId link) const noexcept {
  return link < bytes_.size() ? bytes_[link] : 0;
}

std::uint64_t AmpPotHoneypot::total_packets() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t p : packets_) total += p;
  return total;
}

std::vector<double> AmpPotHoneypot::volume_by_link() const {
  std::vector<double> share(packets_.size(), 0.0);
  const auto total = static_cast<double>(total_packets());
  if (total == 0.0) return share;
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    share[i] = static_cast<double>(packets_[i]) / total;
  }
  return share;
}

std::vector<AmpPotHoneypot::VictimStats> AmpPotHoneypot::attacks() const {
  std::vector<VictimStats> out;
  for (const auto& [addr, stats] : victims_) {
    if (stats.packets >= options_.attack_min_packets) out.push_back(stats);
  }
  std::sort(out.begin(), out.end(),
            [](const VictimStats& a, const VictimStats& b) {
              return a.packets > b.packets;
            });
  return out;
}

}  // namespace spooftrack::traffic
