#include "core/prediction.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace spooftrack::core {

ConfigDescriptor ConfigDescriptor::from(const bgp::Configuration& config) {
  ConfigDescriptor descriptor;
  for (const auto& spec : config.announcements) {
    descriptor.active_mask |= 1u << spec.link;
    if (spec.prepend > 0) descriptor.prepend_mask |= 1u << spec.link;
  }
  return descriptor;
}

CatchmentPredictor::CatchmentPredictor(std::size_t source_count,
                                       std::size_t link_count)
    : links_(link_count),
      wins_(source_count * link_count * link_count, 0),
      strong_wins_(source_count * link_count * link_count, 0),
      seen_(source_count, 0) {
  if (link_count > 16) {
    throw std::invalid_argument("predictor supports at most 16 links");
  }
}

void CatchmentPredictor::observe_source(const ConfigDescriptor& config,
                                        std::size_t source,
                                        bgp::LinkId chosen) {
  if (chosen == bgp::kNoCatchment || chosen >= links_ ||
      !config.active(chosen)) {
    return;
  }
  seen_[source] = 1;
  for (bgp::LinkId other = 0; other < links_; ++other) {
    if (other == chosen || !config.active(other)) continue;
    auto& count = wins_[index(source, chosen, other)];
    if (count < std::numeric_limits<std::uint16_t>::max()) ++count;
    if (config.prepended(chosen) && !config.prepended(other)) {
      auto& strong = strong_wins_[index(source, chosen, other)];
      if (strong < std::numeric_limits<std::uint16_t>::max()) ++strong;
    }
  }
}

void CatchmentPredictor::observe(const ConfigDescriptor& config,
                                 std::span<const std::uint8_t> row) {
  if (row.size() != seen_.size()) {
    throw std::invalid_argument("row size does not match source count");
  }
  ++observed_;
  const std::size_t n = row.size();
  std::size_t s = 0;
  while (s < n) {
    if (s + 8 <= n) {
      // Missing cells contribute nothing; skip saturated-missing stretches
      // eight encoded cells per 64-bit load.
      std::uint64_t word;
      std::memcpy(&word, row.data() + s, sizeof word);
      if (word == ~std::uint64_t{0}) {
        s += 8;
        continue;
      }
    }
    observe_source(config, s, measure::CatchmentStore::decode(row[s]));
    ++s;
  }
}

double CatchmentPredictor::accuracy(
    const ConfigDescriptor& config,
    std::span<const std::uint8_t> actual) const {
  std::size_t total = 0, correct = 0;
  const std::size_t n = std::min(actual.size(), seen_.size());
  std::size_t s = 0;
  while (s < n) {
    if (s + 8 <= n) {
      // Word-skip stretches of missing cells (they are excluded from the
      // accuracy denominator anyway).
      std::uint64_t word;
      std::memcpy(&word, actual.data() + s, sizeof word);
      if (word == ~std::uint64_t{0}) {
        s += 8;
        continue;
      }
    }
    if (actual[s] != bgp::kNoCatchment8) {
      ++total;
      correct += predict(config, s) == actual[s];
    }
    ++s;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

bgp::LinkId CatchmentPredictor::copeland(std::size_t source,
                                         std::uint32_t candidates) const {
  bgp::LinkId best = bgp::kNoCatchment;
  int best_score = std::numeric_limits<int>::min();
  std::uint32_t best_wins = 0;
  for (bgp::LinkId link = 0; link < links_; ++link) {
    if (!((candidates >> link) & 1u)) continue;
    int score = 0;
    std::uint32_t total_wins = 0;
    for (bgp::LinkId other = 0; other < links_; ++other) {
      if (other == link || !((candidates >> other) & 1u)) continue;
      const int w = wins_[index(source, link, other)];
      const int l = wins_[index(source, other, link)];
      if (w > l) ++score;
      else if (w < l) --score;
      total_wins += static_cast<std::uint32_t>(w);
    }
    if (best == bgp::kNoCatchment || score > best_score ||
        (score == best_score && total_wins > best_wins)) {
      best = link;
      best_score = score;
      best_wins = total_wins;
    }
  }
  return best;
}

bgp::LinkId CatchmentPredictor::predict(const ConfigDescriptor& config,
                                        std::size_t source) const {
  if (!seen_[source] || config.active_mask == 0) return bgp::kNoCatchment;
  // First tier: active links without prepending; fall back to all active
  // links when everything active is prepended.
  const std::uint32_t unprepended =
      config.active_mask & ~config.prepend_mask;
  const std::uint32_t first_tier =
      unprepended != 0 ? unprepended : config.active_mask;
  const bgp::LinkId choice = copeland(source, first_tier);

  // LocalPref override: if the source historically beats every first-tier
  // candidate with a prepended link (it keeps choosing that link even when
  // longer alternatives exist), keep it. Approximated by checking whether
  // some prepended active link dominates the chosen one head-to-head.
  const std::uint32_t prepended_active =
      config.active_mask & config.prepend_mask;
  if (choice != bgp::kNoCatchment && prepended_active != 0) {
    for (bgp::LinkId link = 0; link < links_; ++link) {
      if (!((prepended_active >> link) & 1u)) continue;
      // LocalPref loyalty: the link won against the first-tier choice
      // even while prepended, and never lost to it.
      if (strong_wins_[index(source, link, choice)] > 0 &&
          wins_[index(source, choice, link)] == 0) {
        return link;
      }
    }
  }
  return choice;
}

std::vector<bgp::LinkId> CatchmentPredictor::predict_row(
    const ConfigDescriptor& config) const {
  std::vector<bgp::LinkId> row(seen_.size(), bgp::kNoCatchment);
  for (std::size_t s = 0; s < seen_.size(); ++s) {
    row[s] = predict(config, s);
  }
  return row;
}

}  // namespace spooftrack::core
