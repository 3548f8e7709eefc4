// spooftrack::fault — deterministic, seeded fault injection for the
// measurement plane.
//
// The paper's pipeline works on the real Internet only because it tolerates
// dirty inputs: route collectors miss RIB dumps, traceroutes stall at
// unresponsive hops, honeypot capture is lossy, and PEERING announcements
// occasionally fail to stick. This subsystem makes that degraded operation
// a first-class, *measured* scenario: every injection site draws from a
// stateless hash of (seed, site, config, entity) — the same salting
// discipline as the MeasurementDriver — so a fault schedule is
// byte-reproducible for any worker count and any component can re-derive
// the same draw independently.
//
// Two properties callers lean on (tests/test_fault.cpp pins both):
//
//  * Disabled is a provable no-op. A FaultInjector with every probability
//    at zero never fires and every injection site takes its pre-existing
//    branch, so outputs are bit-identical to a build without the fault
//    layer.
//  * Draws are monotone in the rate. fires() compares one fixed hash
//    against the probability, so the faults fired at rate p are a subset
//    of those fired at rate q > p under the same seed — degradation sweeps
//    compare like with like, and quality metrics degrade monotonically by
//    construction, not in expectation.
//
// The fault model (distributions, seed derivations, degradation semantics)
// is a documented contract: see docs/faults.md. Every `fault.*` metric
// emitted at an injection site must appear there
// (FaultDocsContract.EveryEmittedFaultMetricIsDocumented).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace spooftrack::fault {

/// Injection sites. Values are part of the seed-derivation contract
/// (docs/faults.md): a draw hashes (seed, site value, a, b), so renumbering
/// reshuffles every fault schedule. The kJournal* sites are kill-points —
/// deterministic crash barriers inside the campaign journal
/// (docs/checkpointing.md), triggered by ordinal rather than probability.
enum class Site : std::uint64_t {
  kFeedOutage = 1,          // collector misses a peer's export entirely
  kFeedStale = 2,           // collector snapshot predates the announcement
  kTracerouteLoss = 3,      // probe result never arrives
  kTracerouteTruncate = 4,  // probe result cut short mid-path
  kHoneypotDrop = 5,        // capture pipeline loses a packet
  kHoneypotDuplicate = 6,   // capture merge delivers a packet twice
  kDeployFailure = 7,       // configuration deployment attempt fails
  kJournalPreWrite = 8,     // before any byte of a journal record
  kJournalMidRecord = 9,    // after half a record's frame (torn write)
  kJournalPreRename = 10,   // segment sealed+fsynced, before the rename
  kJournalPreFsync = 11,    // segment renamed, before the directory fsync
};

std::string_view site_name(Site site) noexcept;

/// The fault model for one run: per-site probabilities, the seed every
/// draw derives from, the deploy retry budget, and the thresholds that
/// turn per-config fault counts into quality grades. All probabilities
/// default to zero (faults disabled).
struct FaultPlan {
  std::uint64_t seed = 0xFA170ULL;

  /// Per (config, peer): the collector missed this peer's export.
  double feed_outage_prob = 0.0;
  /// Per (config, peer): the snapshot is stale — the exported AS-path is
  /// truncated before the announcement seed, so it yields no votes.
  double feed_stale_prob = 0.0;
  /// Per (config-round salt, probe): the whole traceroute is lost.
  double traceroute_loss_prob = 0.0;
  /// Per (config-round salt, probe): the traceroute is cut short at a
  /// hash-derived hop and never reaches the target.
  double traceroute_truncate_prob = 0.0;
  /// Per ingested packet: capture loses it before the honeypot sees it.
  double honeypot_drop_prob = 0.0;
  /// Per ingested packet: capture merge delivers it twice.
  double honeypot_duplicate_prob = 0.0;
  /// Per (config, attempt): this deployment attempt fails transiently.
  double deploy_failure_prob = 0.0;

  /// Extra deployment attempts after the first failure; a config whose
  /// first 1 + budget attempts all fail is abandoned (grade kFailed, no
  /// measurement, matrix row all-missing).
  std::uint32_t deploy_retry_budget = 2;

  /// Deterministic kill-point (docs/checkpointing.md): the crash_at-th time
  /// the journal passes `crash_site`'s barrier, a SimulatedCrash is thrown.
  /// 0 disables crashes. Ordinals are 1-based and counted per site by the
  /// journal writer, whose barriers run in globally-serialized commit
  /// order, so a kill-point fires at the same logical instant for any
  /// worker count or pipeline depth.
  Site crash_site = Site::kJournalPreWrite;
  std::uint64_t crash_at = 0;

  /// Grade thresholds: a config is kDegraded when the faulted fraction of
  /// its feed entries or traceroutes exceeds these, or when deployment
  /// needed a retry.
  double degraded_feed_fraction = 0.05;
  double degraded_trace_fraction = 0.05;

  /// Any injection probability nonzero? (Kill-points do not count: a
  /// crash-only plan must not switch the measurement plane into its
  /// fault-accounting mode, or a zero-rate crash plan would no longer be
  /// bit-identical to a fault-free run.)
  bool any() const noexcept;
  bool any_feed() const noexcept {
    return feed_outage_prob > 0.0 || feed_stale_prob > 0.0;
  }
  bool any_traceroute() const noexcept {
    return traceroute_loss_prob > 0.0 || traceroute_truncate_prob > 0.0;
  }
  bool any_honeypot() const noexcept {
    return honeypot_drop_prob > 0.0 || honeypot_duplicate_prob > 0.0;
  }
  bool any_deploy() const noexcept { return deploy_failure_prob > 0.0; }

  /// Sets every injection probability to `p` (budgets and thresholds are
  /// untouched). Convenience for sweeps.
  FaultPlan& set_all(double p) noexcept;
};

/// Stateless deterministic fault source. Thread-safe: draws are pure
/// functions of (plan seed, site, a, b), so any worker can evaluate any
/// draw in any order with identical results, and accounting code can
/// re-derive a component's draws without plumbing counters through it.
class FaultInjector {
 public:
  /// Disabled injector: enabled() is false and fires() never fires.
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const noexcept { return plan_; }
  bool enabled() const noexcept { return enabled_; }

  /// Uniform [0, 1) draw for (site, a, b); pure in the plan seed.
  double draw(Site site, std::uint64_t a, std::uint64_t b) const noexcept;

  /// Whether the site's fault fires for (a, b): draw < site probability.
  /// Always false when disabled. Monotone in the site probability.
  bool fires(Site site, std::uint64_t a, std::uint64_t b) const noexcept;

  /// Raw 64-bit mix for secondary choices (e.g. the truncation hop).
  /// Independent of the threshold draw for the same (site, a, b).
  std::uint64_t mix(Site site, std::uint64_t a,
                    std::uint64_t b) const noexcept;

  /// Whether the plan's kill-point fires at this barrier crossing: true iff
  /// crash_at != 0, site == crash_site and ordinal == crash_at. The caller
  /// supplies the 1-based per-site ordinal, keeping the injector stateless.
  bool crashes(Site site, std::uint64_t ordinal) const noexcept {
    return plan_.crash_at != 0 && site == plan_.crash_site &&
           ordinal == plan_.crash_at;
  }

  /// Throws SimulatedCrash when crashes(site, ordinal).
  void check_crash(Site site, std::uint64_t ordinal) const;

 private:
  double site_prob(Site site) const noexcept;

  FaultPlan plan_{};
  bool enabled_ = false;
};

/// Thrown by FaultInjector::check_crash at an armed kill-point. Models an
/// operator restart / power loss at a journal barrier: the process state is
/// lost, the on-disk journal is whatever the barriers before the crash made
/// durable. The recovery harness (tests/test_journal.cpp) catches it,
/// reopens the journal and pins that the resumed run is byte-identical.
class SimulatedCrash : public std::runtime_error {
 public:
  SimulatedCrash(Site site, std::uint64_t ordinal);

  Site site() const noexcept { return site_; }
  std::uint64_t ordinal() const noexcept { return ordinal_; }

 private:
  Site site_;
  std::uint64_t ordinal_;
};

/// Per-configuration measurement quality grade (docs/faults.md).
enum class Grade : std::uint8_t {
  kGood = 0,      // no faults worth reporting
  kDegraded = 1,  // measured, but above a degradation threshold
  kFailed = 2,    // deployment abandoned; no measurement exists
};

/// Per-configuration fault accounting, filled by the measurement driver
/// (feed/trace counts) and the deploy loop (attempts), graded against the
/// plan thresholds by grade_config.
struct ConfigQuality {
  Grade grade = Grade::kGood;
  /// Deployment attempts consumed (1 = first try stuck; > 1 = retried).
  std::uint32_t deploy_attempts = 1;
  /// Feed entries that survived collector faults for this config.
  std::uint32_t feed_entries = 0;
  /// Feed entries lost or staled by collector faults.
  std::uint32_t feed_faults = 0;
  /// Traceroutes issued for this config (probes x rounds).
  std::uint32_t traces = 0;
  /// Traceroutes lost or truncated by injected faults.
  std::uint32_t trace_faults = 0;

  friend bool operator==(const ConfigQuality&,
                         const ConfigQuality&) = default;
};

/// Grades measured fault counts against the plan thresholds. Never returns
/// kFailed — abandonment is decided by the deploy loop, which knows the
/// retry budget was exhausted.
Grade grade_config(const ConfigQuality& quality,
                   const FaultPlan& plan) noexcept;

}  // namespace spooftrack::fault
