#include "fault/fault.hpp"

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace spooftrack::fault {

std::string_view site_name(Site site) noexcept {
  switch (site) {
    case Site::kFeedOutage:
      return "feed_outage";
    case Site::kFeedStale:
      return "feed_stale";
    case Site::kTracerouteLoss:
      return "traceroute_loss";
    case Site::kTracerouteTruncate:
      return "traceroute_truncate";
    case Site::kHoneypotDrop:
      return "honeypot_drop";
    case Site::kHoneypotDuplicate:
      return "honeypot_duplicate";
    case Site::kDeployFailure:
      return "deploy_failure";
    case Site::kJournalPreWrite:
      return "journal_pre_write";
    case Site::kJournalMidRecord:
      return "journal_mid_record";
    case Site::kJournalPreRename:
      return "journal_pre_rename";
    case Site::kJournalPreFsync:
      return "journal_pre_fsync";
  }
  return "unknown";
}

bool FaultPlan::any() const noexcept {
  return any_feed() || any_traceroute() || any_honeypot() || any_deploy();
}

FaultPlan& FaultPlan::set_all(double p) noexcept {
  feed_outage_prob = p;
  feed_stale_prob = p;
  traceroute_loss_prob = p;
  traceroute_truncate_prob = p;
  honeypot_drop_prob = p;
  honeypot_duplicate_prob = p;
  deploy_failure_prob = p;
  return *this;
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), enabled_(plan.any()) {}

double FaultInjector::site_prob(Site site) const noexcept {
  switch (site) {
    case Site::kFeedOutage:
      return plan_.feed_outage_prob;
    case Site::kFeedStale:
      return plan_.feed_stale_prob;
    case Site::kTracerouteLoss:
      return plan_.traceroute_loss_prob;
    case Site::kTracerouteTruncate:
      return plan_.traceroute_truncate_prob;
    case Site::kHoneypotDrop:
      return plan_.honeypot_drop_prob;
    case Site::kHoneypotDuplicate:
      return plan_.honeypot_duplicate_prob;
    case Site::kDeployFailure:
      return plan_.deploy_failure_prob;
    case Site::kJournalPreWrite:
    case Site::kJournalMidRecord:
    case Site::kJournalPreRename:
    case Site::kJournalPreFsync:
      // Kill-points are ordinal-triggered (crashes()), never probabilistic.
      return 0.0;
  }
  return 0.0;
}

double FaultInjector::draw(Site site, std::uint64_t a,
                           std::uint64_t b) const noexcept {
  // (seed, hash_combine(site, a, b)) — the same stateless salting the
  // MeasurementDriver uses, so a draw depends on nothing but its
  // identifiers. The top 53 bits give a uniform double in [0, 1).
  return util::unit01(util::hash_combine(
      plan_.seed, util::hash_combine(static_cast<std::uint64_t>(site),
                                     util::hash_combine(a, b))));
}

bool FaultInjector::fires(Site site, std::uint64_t a,
                          std::uint64_t b) const noexcept {
  if (!enabled_) return false;
  const double p = site_prob(site);
  if (p <= 0.0) return false;
  return draw(site, a, b) < p;
}

std::uint64_t FaultInjector::mix(Site site, std::uint64_t a,
                                 std::uint64_t b) const noexcept {
  // Distinct from draw()'s hash (extra finalizer) so the truncation point
  // is independent of whether truncation fires.
  return util::mix64(util::hash_combine(
      plan_.seed ^ 0x5EC0DDA57ULL,
      util::hash_combine(static_cast<std::uint64_t>(site),
                         util::hash_combine(a, b))));
}

SimulatedCrash::SimulatedCrash(Site site, std::uint64_t ordinal)
    : std::runtime_error("simulated crash at " + std::string(site_name(site)) +
                         " barrier #" + std::to_string(ordinal)),
      site_(site),
      ordinal_(ordinal) {}

void FaultInjector::check_crash(Site site, std::uint64_t ordinal) const {
  if (!crashes(site, ordinal)) return;
  OBS_COUNT("fault.crash.triggered", 1);
  throw SimulatedCrash(site, ordinal);
}

Grade grade_config(const ConfigQuality& quality,
                   const FaultPlan& plan) noexcept {
  if (quality.deploy_attempts > 1) return Grade::kDegraded;
  const std::uint64_t feed_total =
      std::uint64_t{quality.feed_entries} + quality.feed_faults;
  if (feed_total > 0 &&
      static_cast<double>(quality.feed_faults) >
          plan.degraded_feed_fraction * static_cast<double>(feed_total)) {
    return Grade::kDegraded;
  }
  if (quality.traces > 0 &&
      static_cast<double>(quality.trace_faults) >
          plan.degraded_trace_fraction * static_cast<double>(quality.traces)) {
    return Grade::kDegraded;
  }
  return Grade::kGood;
}

}  // namespace spooftrack::fault
