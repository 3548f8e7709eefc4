// Legitimate background traffic toward the origin's prefix.
//
// The paper's §III-C names two ways to estimate spoofed volume per link:
// an amplification honeypot (no legitimate traffic at all) or — for
// production prefixes — inferring the set of valid sources per link and
// labelling everything else as spoofed (Lichtblau et al.). This model
// produces the legitimate side of that picture: a stable population of
// client ASes sending genuine packets from their own address space, which
// arrive on their catchment's link and train a ValidSourceInference.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/catchment.hpp"
#include "measure/address_plan.hpp"
#include "traffic/spoofer.hpp"
#include "traffic/valid_source.hpp"
#include "util/rng.hpp"

namespace spooftrack::traffic {

struct BackgroundOptions {
  /// Fraction of ASes that host clients of the origin's services.
  double active_fraction = 0.8;
  /// Distinct client hosts per active AS.
  std::uint32_t hosts_per_as = 3;
  /// Mean legitimate packets per active AS per generated window.
  double packets_per_as = 4.0;
  std::uint64_t seed = 555;
};

class BackgroundTrafficModel {
 public:
  /// Throws std::invalid_argument for a negative or NaN packets_per_as.
  BackgroundTrafficModel(const topology::AsGraph& graph,
                         const measure::AddressPlan& plan,
                         const BackgroundOptions& options);

  /// Whether an AS hosts clients (persistent per seed).
  bool active(topology::AsId id) const noexcept;
  std::size_t active_count() const noexcept;

  /// A stable client address of an AS (host < hosts_per_as).
  netcore::Ipv4Addr client_address(topology::AsId id,
                                   std::uint32_t host) const noexcept;

  /// Generates one window of legitimate arrivals under `catchments`:
  /// every active, routed AS emits packets from its clients, ingressing
  /// on its catchment link. `salt` varies packet counts across windows.
  std::vector<ArrivedPacket> generate(const bgp::CatchmentMap& catchments,
                                      std::uint64_t salt) const;

  /// Trains a classifier with every (client prefix, link) pair the
  /// catchments imply — the steady state after observing enough windows.
  void train(ValidSourceInference& inference,
             const bgp::CatchmentMap& catchments) const;

 private:
  const topology::AsGraph& graph_;
  const measure::AddressPlan& plan_;
  BackgroundOptions options_;
};

}  // namespace spooftrack::traffic
