// Shared fixtures for spooftrack tests: a small hand-built topology with
// known catchment behaviour, convenience factories, a one-call warm start,
// one-call forms of production entry points (path_of, accepts, trace,
// repair, infer), an FNV-1a digest for pinned outputs, and a guard for the
// SPOOFTRACK_THREADS variable.
//
// The one-call forms only wrap: each builds the arguments a production
// entry point takes (an interned path, a fresh scratch) and calls it, so
// the tests check the code the deploy runs.
//
//     t1 ===peer=== t2            (tier-1 clique)
//     |- p1, c                    (t1's customers)
//     t2 |- p2, e                 (t2's customers)
//     p1 |- a, d, origin          (d multihomes to p1 and p2)
//     p2 |- b, d, origin          (origin 47065 is customer of p1 and p2)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "bgp/path_arena.hpp"
#include "bgp/policy.hpp"
#include "measure/feed.hpp"
#include "measure/inference.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
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

/// Warm-starts `config` from `baseline`, the outcome of `baseline_config`,
/// preparing both seed tables first. Takes the baseline by value, so a
/// caller that keeps its outcome passes a copy.
inline bgp::RoutingOutcome warm_run(const bgp::Engine& engine,
                                    const bgp::OriginSpec& origin,
                                    const bgp::Configuration& config,
                                    const bgp::Configuration& baseline_config,
                                    bgp::RoutingOutcome baseline) {
  return engine.run_warm(origin, config, engine.prepare(origin, config),
                         baseline_config,
                         engine.prepare(origin, baseline_config),
                         std::move(baseline));
}

/// Path `id` of `arena`, front (head) to back (origin).
inline std::vector<topology::Asn> path_of(const bgp::PathArena& arena,
                                          bgp::PathId id) {
  std::vector<topology::Asn> path;
  for (topology::Asn asn : arena.view(id)) path.push_back(asn);
  return path;
}

/// AS-path of `id`'s best route in `outcome` (empty when unrouted).
inline std::vector<topology::Asn> path_of(const bgp::RoutingOutcome& outcome,
                                          topology::AsId id) {
  return path_of(outcome.paths, outcome.best[id].path);
}

/// RoutingPolicy::accepts for a written-out path whose front is the sender,
/// as an origin seed carries it (path_includes_sender).
inline bool accepts(const bgp::RoutingPolicy& policy,
                    topology::AsId receiver, topology::Asn receiver_asn,
                    topology::Rel rel_of_sender,
                    std::span<const topology::Asn> path_with_sender) {
  bgp::PathArena arena;
  bgp::CandidateRef candidate;
  candidate.sender_asn = path_with_sender.empty() ? 0 : path_with_sender[0];
  candidate.rel_of_sender = rel_of_sender;
  candidate.arena = &arena;
  candidate.learned_path = arena.intern(path_with_sender);
  candidate.path_includes_sender = true;
  return policy.accepts(receiver, receiver_asn, rel_of_sender, candidate);
}

/// One traceroute from `probe` under `outcome`: walks the forwarding path
/// itself, so a test comparing against the measurement driver does not
/// share its ProbePathSet extraction.
inline measure::Traceroute trace(const measure::TracerouteSim& sim,
                                 const bgp::RoutingOutcome& outcome,
                                 topology::AsId probe, topology::AsId origin,
                                 std::uint64_t salt) {
  measure::Traceroute trace;
  sim.run_on_path(bgp::forwarding_path(outcome, probe, origin), probe, origin,
                  salt, trace);
  return trace;
}

/// PathRepair::repair of one batch on a fresh scratch.
inline std::vector<measure::AsLevelPath> repair(
    const measure::PathRepair& repairer,
    std::span<const measure::Traceroute> traces,
    std::span<const measure::FeedEntry> feeds) {
  measure::PathRepair::Scratch scratch;
  std::vector<measure::AsLevelPath> out;
  repairer.repair(traces, feeds, scratch, out);
  return out;
}

/// CatchmentInference::infer on a fresh scratch.
inline measure::InferenceResult infer(
    const measure::CatchmentInference& inference,
    std::span<const measure::FeedEntry> feeds,
    std::span<const measure::AsLevelPath> traces) {
  measure::CatchmentInference::Scratch scratch;
  return inference.infer(feeds, traces, scratch);
}

/// The map routing AS i to links[i] (bgp::kNoCatchment: no route).
inline bgp::CatchmentMap catchment_map(const std::vector<bgp::LinkId>& links) {
  bgp::CatchmentMap map(links.size());
  for (topology::AsId id = 0; id < links.size(); ++id) map.set(id, links[id]);
  return map;
}

/// 64-bit FNV-1a, printed as 16 hex digits.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  std::string hex() const {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h_));
    return hex;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

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
