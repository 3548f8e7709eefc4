#include "bgp/route.hpp"

namespace spooftrack::bgp {

std::uint8_t canonical_pref(topology::Rel rel_of_sender) noexcept {
  switch (rel_of_sender) {
    case topology::Rel::kCustomer: return kPrefCustomer;
    case topology::Rel::kPeer: return kPrefPeer;
    case topology::Rel::kProvider: return kPrefProvider;
  }
  return kPrefProvider;
}

}  // namespace spooftrack::bgp
