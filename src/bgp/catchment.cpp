#include "bgp/catchment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace spooftrack::bgp {

void throw_link_out_of_range(LinkId link) {
  throw std::out_of_range(
      "link id " + std::to_string(link) + " exceeds the " +
      std::to_string(kMaxCatchmentLinks) +
      "-link analysis limit (would alias in the 6-bit cluster slots)");
}

namespace {

/// True when some cell holds `link`.
bool encodable(LinkId link) noexcept {
  return link == kNoCatchment || link < kMaxCatchmentLinks;
}

}  // namespace

CatchmentMap::CatchmentMap(std::vector<std::uint8_t> cells)
    : cells_(std::move(cells)) {
  // Re-encoding validates: a byte no link id encodes to throws.
  for (const std::uint8_t cell : cells_) {
    encode_catchment(decode_catchment(cell));
  }
}

std::size_t CatchmentMap::count(LinkId link) const noexcept {
  if (!encodable(link)) return 0;
  return static_cast<std::size_t>(
      std::count(cells_.begin(), cells_.end(), encode_catchment(link)));
}

std::vector<topology::AsId> CatchmentMap::members(LinkId link) const {
  std::vector<topology::AsId> out;
  if (!encodable(link)) return out;
  const std::uint8_t cell = encode_catchment(link);
  for (topology::AsId id = 0; id < cells_.size(); ++id) {
    if (cells_[id] == cell) out.push_back(id);
  }
  return out;
}

std::vector<std::size_t> CatchmentMap::counts(std::size_t link_count) const {
  std::vector<std::size_t> out(link_count, 0);
  for (const std::uint8_t cell : cells_) {
    if (cell != kNoCatchment8 && cell < link_count) ++out[cell];
  }
  return out;
}

std::size_t CatchmentMap::routed_count() const noexcept {
  return cells_.size() - static_cast<std::size_t>(std::count(
                             cells_.begin(), cells_.end(), kNoCatchment8));
}

CatchmentMap extract_catchments(const RoutingOutcome& outcome,
                                const Configuration& config) {
  CatchmentMap map(outcome.best.size());
  for (topology::AsId id = 0; id < outcome.best.size(); ++id) {
    const Route& route = outcome.best[id];
    if (!route.valid()) continue;
    map.set(id, config.announcements[route.ann].link);
  }
  return map;
}

}  // namespace spooftrack::bgp
