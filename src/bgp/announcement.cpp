#include "bgp/announcement.hpp"

#include <stdexcept>
#include <unordered_set>

namespace spooftrack::bgp {

bool Configuration::announces(LinkId link) const noexcept {
  return spec_for(link) != nullptr;
}

const AnnouncementSpec* Configuration::spec_for(LinkId link) const noexcept {
  for (const auto& spec : announcements) {
    if (spec.link == link) return &spec;
  }
  return nullptr;
}

const PeeringLink* OriginSpec::link_by_provider(
    topology::Asn provider) const noexcept {
  for (const auto& link : links) {
    if (link.provider == provider) return &link;
  }
  return nullptr;
}

std::vector<topology::Asn> seed_path(topology::Asn origin,
                                     const AnnouncementSpec& spec) {
  std::vector<topology::Asn> path;
  path.reserve(1 + spec.prepend + 2 * spec.poisoned.size());
  for (std::uint32_t i = 0; i <= spec.prepend; ++i) path.push_back(origin);
  for (topology::Asn poisoned : spec.poisoned) {
    path.push_back(poisoned);
    path.push_back(origin);
  }
  return path;
}

void validate(const Configuration& config, const OriginSpec& origin) {
  if (config.announcements.empty()) {
    throw std::invalid_argument("configuration announces from no link");
  }
  std::unordered_set<LinkId> seen;
  for (const auto& spec : config.announcements) {
    if (spec.link >= origin.links.size()) {
      throw std::invalid_argument("announcement references unknown link " +
                                  std::to_string(spec.link));
    }
    if (!seen.insert(spec.link).second) {
      throw std::invalid_argument("link " + std::to_string(spec.link) +
                                  " announced twice in one configuration");
    }
    if (spec.prepend > kMaxPrepend) {
      throw std::invalid_argument("prepend count exceeds cap");
    }
    if (spec.poisoned.size() > kMaxPoisonedPerAnnouncement) {
      throw std::invalid_argument(
          "PEERING allows at most two poisoned ASes per announcement");
    }
    for (topology::Asn poisoned : spec.poisoned) {
      if (poisoned == origin.asn) {
        throw std::invalid_argument("origin cannot poison itself");
      }
    }
    if (spec.no_export_to.size() > kMaxNoExportPerAnnouncement) {
      throw std::invalid_argument("too many no-export community targets");
    }
    for (topology::Asn target : spec.no_export_to) {
      if (target == origin.asn) {
        throw std::invalid_argument(
            "origin cannot no-export to itself");
      }
    }
  }
}

}  // namespace spooftrack::bgp
