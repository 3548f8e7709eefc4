// Catchment prediction (the paper's future-work direction §VIII(ii) and
// §V-C: "predict the catchments of announcement configurations and only
// deploy the most promising ones").
//
// Model: each source reveals, one configuration at a time, a preference
// among the peering links available to it. We accumulate pairwise wins —
// "source s chose link a while link b was also available" — and predict
// the catchment of an unseen configuration by a Copeland ranking over its
// active links. Prepended links are demoted to a second tier (prepending
// loses tiebreaks but not LocalPref decisions, so a source that never
// switches away from a link keeps it even when prepended).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/announcement.hpp"
#include "bgp/catchment.hpp"
#include "measure/catchment_store.hpp"

namespace spooftrack::core {

/// Compact description of a configuration for prediction purposes.
struct ConfigDescriptor {
  std::uint32_t active_mask = 0;
  std::uint32_t prepend_mask = 0;

  static ConfigDescriptor from(const bgp::Configuration& config);

  bool active(bgp::LinkId link) const noexcept {
    return (active_mask >> link) & 1u;
  }
  bool prepended(bgp::LinkId link) const noexcept {
    return (prepend_mask >> link) & 1u;
  }
};

class CatchmentPredictor {
 public:
  /// Supports up to 16 links (pairwise win table is links^2 per source).
  CatchmentPredictor(std::size_t source_count, std::size_t link_count);

  /// Ingests one observed configuration: row[s] is source s's measured
  /// catchment as an encoded CatchmentStore cell (kNoCatchment8 cells are
  /// skipped).
  void observe(const ConfigDescriptor& config,
               std::span<const std::uint8_t> row);

  /// Predicted catchment of one source under a configuration; returns
  /// kNoCatchment when nothing was ever observed for the source.
  bgp::LinkId predict(const ConfigDescriptor& config,
                      std::size_t source) const;

  /// Predicted catchments for every source.
  std::vector<bgp::LinkId> predict_row(const ConfigDescriptor& config) const;

  /// Fraction of non-missing cells of the encoded CatchmentStore row
  /// `actual` matched by the prediction.
  double accuracy(const ConfigDescriptor& config,
                  std::span<const std::uint8_t> actual) const;

  std::size_t observed_configs() const noexcept { return observed_; }

 private:
  std::size_t index(std::size_t source, bgp::LinkId winner,
                    bgp::LinkId loser) const {
    return (source * links_ + winner) * links_ + loser;
  }

  /// Copeland choice among candidate links (bitmask) for one source.
  bgp::LinkId copeland(std::size_t source, std::uint32_t candidates) const;

  /// Accumulates one source's observed choice into the win tables.
  void observe_source(const ConfigDescriptor& config, std::size_t source,
                      bgp::LinkId chosen);

  std::size_t links_ = 0;
  std::size_t observed_ = 0;
  /// Pairwise wins "source chose `winner` while `loser` was available".
  std::vector<std::uint16_t> wins_;
  /// Wins recorded while the winner was prepended and the loser was not —
  /// evidence that LocalPref, not path length, drives the choice.
  std::vector<std::uint16_t> strong_wins_;
  std::vector<std::uint8_t> seen_;  // per source: any observation at all
};

}  // namespace spooftrack::core
