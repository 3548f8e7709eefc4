#include "measure/inference.hpp"

#include <algorithm>
#include <array>

#include "obs/obs.hpp"

namespace spooftrack::measure {

std::optional<bgp::LinkId> link_from_as_path(
    std::span<const topology::Asn> path, const bgp::OriginSpec& origin) {
  const auto it = std::find(path.begin(), path.end(), origin.asn);
  if (it == path.end() || it == path.begin()) return std::nullopt;
  const topology::Asn provider = *(it - 1);
  const bgp::PeeringLink* link = origin.link_by_provider(provider);
  if (link == nullptr) return std::nullopt;
  return link->id;
}

CatchmentInference::CatchmentInference(const topology::AsGraph& graph,
                                       const bgp::OriginSpec& origin)
    : graph_(graph), origin_(origin) {}

InferenceResult CatchmentInference::infer(
    std::span<const FeedEntry> feeds,
    std::span<const AsLevelPath> traces) const {
  Scratch scratch;
  return infer(feeds, traces, scratch);
}

InferenceResult CatchmentInference::infer(std::span<const FeedEntry> feeds,
                                          std::span<const AsLevelPath> traces,
                                          Scratch& scratch) const {
  OBS_TIMER("measure.inference.infer_ns");
  const std::size_t link_count = origin_.links.size();
  // Vote counts per AS: [link * 2 + type], type 0 = BGP, type 1 = trace.
  std::vector<std::uint16_t>& votes = scratch.votes;
  votes.assign(graph_.size() * link_count * 2, 0);

  auto add_votes = [&](std::span<const topology::Asn> path, int type) {
    const auto link = link_from_as_path(path, origin_);
    if (!link) return;
    const auto seed_start =
        std::find(path.begin(), path.end(), origin_.asn) - path.begin();
    for (std::ptrdiff_t i = 0; i < seed_start; ++i) {
      const auto id = graph_.id_of(path[i]);
      if (!id) continue;
      auto& count =
          votes[(*id * link_count + *link) * 2 + static_cast<std::size_t>(type)];
      if (count < std::numeric_limits<std::uint16_t>::max()) {
        ++count;
      } else {
        // The u16 ceiling can silently flatten majorities on pathological
        // batches; surface it instead of absorbing it.
        OBS_COUNT("measure.inference.votes_saturated", 1);
      }
    }
  };

  for (const FeedEntry& feed : feeds) add_votes(feed.as_path, 0);
  for (const AsLevelPath& trace : traces) {
    if (trace.complete) add_votes(trace.path, 1);
  }

  InferenceResult result;
  result.catchments.link_of.assign(graph_.size(), bgp::kNoCatchment);

  std::size_t multi = 0;
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    // Count catchments named by any vote: none means the AS was not
    // observed, more than one feeds the multi-catchment stat.
    std::size_t distinct = 0;
    bool has_bgp = false;
    for (std::size_t link = 0; link < link_count; ++link) {
      const std::uint32_t bgp_votes = votes[(id * link_count + link) * 2];
      const std::uint32_t trace_votes = votes[(id * link_count + link) * 2 + 1];
      if (bgp_votes + trace_votes > 0) ++distinct;
      if (bgp_votes > 0) has_bgp = true;
    }
    if (distinct == 0) continue;
    ++result.covered_count;
    if (distinct > 1) ++multi;

    // Resolution: majority among BGP votes when any exist, else among
    // traceroute votes; ties go to the lowest link id (deterministic).
    const int type = has_bgp ? 0 : 1;
    std::uint32_t best_count = 0;
    bgp::LinkId best_link = bgp::kNoCatchment;
    for (std::size_t link = 0; link < link_count; ++link) {
      const std::uint32_t count =
          votes[(id * link_count + link) * 2 + static_cast<std::size_t>(type)];
      if (count > best_count) {
        best_count = count;
        best_link = static_cast<bgp::LinkId>(link);
      }
    }
    result.catchments.link_of[id] = best_link;
  }

  result.multi_catchment_fraction =
      result.covered_count == 0
          ? 0.0
          : static_cast<double>(multi) /
                static_cast<double>(result.covered_count);
  return result;
}

}  // namespace spooftrack::measure
