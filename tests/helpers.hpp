// Shared fixtures for spooftrack tests: a small hand-built topology with
// known catchment behaviour, convenience builders, and a guard for the
// SPOOFTRACK_THREADS variable.
//
//     t1 ===peer=== t2            (tier-1 clique)
//     |- p1, c                    (t1's customers)
//     t2 |- p2, e                 (t2's customers)
//     p1 |- a, d, origin          (d multihomes to p1 and p2)
//     p2 |- b, d, origin          (origin 47065 is customer of p1 and p2)
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/engine.hpp"
#include "bgp/policy.hpp"
#include "topology/as_graph.hpp"

namespace spooftrack::test {

inline constexpr topology::Asn kOrigin = 47065;
inline constexpr topology::Asn kT1 = 10;
inline constexpr topology::Asn kT2 = 11;
inline constexpr topology::Asn kP1 = 100;
inline constexpr topology::Asn kP2 = 200;
inline constexpr topology::Asn kA = 1001;  // stub under p1
inline constexpr topology::Asn kB = 1002;  // stub under p2
inline constexpr topology::Asn kC = 1003;  // stub under t1
inline constexpr topology::Asn kD = 1004;  // multihomed under p1 and p2
inline constexpr topology::Asn kE = 1005;  // stub under t2

/// Builds the diagram topology (frozen).
inline topology::AsGraph small_topology() {
  topology::AsGraph g;
  g.add_p2p(kT1, kT2);
  g.add_p2c(kT1, kP1);
  g.add_p2c(kT2, kP2);
  g.add_p2c(kT1, kC);
  g.add_p2c(kT2, kE);
  g.add_p2c(kP1, kA);
  g.add_p2c(kP2, kB);
  g.add_p2c(kP1, kD);
  g.add_p2c(kP2, kD);
  g.add_p2c(kP1, kOrigin);
  g.add_p2c(kP2, kOrigin);
  g.freeze();
  return g;
}

/// Origin with two links: link 0 via p1, link 1 via p2.
inline bgp::OriginSpec small_origin() {
  bgp::OriginSpec origin;
  origin.asn = kOrigin;
  origin.links.push_back({0, "pop-p1", kP1});
  origin.links.push_back({1, "pop-p2", kP2});
  return origin;
}

/// Policy with no random deviations (pure Gao-Rexford + tier-1 filter).
inline bgp::PolicyConfig clean_policy_config() {
  bgp::PolicyConfig config;
  config.ignore_poison_fraction = 0.0;
  config.shortest_violator_fraction = 0.0;
  config.peer_provider_swap_fraction = 0.0;
  return config;
}

/// Announce from every link, no prepending, no poisoning.
inline bgp::Configuration announce_all(std::size_t links) {
  bgp::Configuration config;
  config.label = "all";
  for (std::size_t l = 0; l < links; ++l) {
    config.announcements.push_back(
        {static_cast<bgp::LinkId>(l), 0, {}, {}});
  }
  return config;
}

/// Saves and restores SPOOFTRACK_THREADS around a test.
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* value = std::getenv(kName)) {
      saved_ = value;
      had_value_ = true;
    }
  }
  ~ThreadsEnvGuard() {
    if (had_value_) {
      ::setenv(kName, saved_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }
  static void set(const char* value) { ::setenv(kName, value, 1); }
  static void clear() { ::unsetenv(kName); }

 private:
  static constexpr const char* kName = "SPOOFTRACK_THREADS";
  std::string saved_;
  bool had_value_ = false;
};

}  // namespace spooftrack::test
