// Pinned digests of the stateless per-AS draws (util::unit_hash and
// util::unit01) that background traffic, verfploeter probing and the
// convergence model make: which ASes are active and responsive, which
// probes are lost, every background packet and every per-AS settle time
// over eight configurations of a 297-AS synthetic topology. The values
// were recorded from the per-model hash helpers these draws replaced.
#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "bgp/policy.hpp"
#include "core/config_gen.hpp"
#include "helpers.hpp"
#include "measure/address_plan.hpp"
#include "measure/convergence.hpp"
#include "measure/verfploeter.hpp"
#include "topology/synth.hpp"
#include "traffic/background.hpp"

namespace spooftrack {
namespace {

TEST(UnitHashDraws, ModelDigestsArePinned) {
  topology::SynthConfig synth;
  synth.seed = 7;
  synth.tier1_count = 6;
  synth.transit_count = 40;
  synth.stub_count = 250;
  synth.origin_asn = 47065;
  for (std::uint32_t l = 0; l < 4; ++l) {
    synth.reserved_transit_asns.push_back(60000 + l);
  }
  const topology::SynthTopology topo = topology::synthesize(synth);
  bgp::OriginSpec origin;
  origin.asn = 47065;
  for (std::uint32_t l = 0; l < 4; ++l) {
    origin.links.push_back({l, "link", 60000 + l});
  }
  const bgp::RoutingPolicy policy(topo.graph, bgp::PolicyConfig{});
  const bgp::Engine engine(topo.graph, policy);
  const measure::AddressPlan plan(topo.graph);
  const topology::AsId origin_id = *topo.graph.id_of(origin.asn);
  const auto configs =
      core::ConfigGenerator(origin, core::GeneratorOptions{})
          .full_plan(topo.graph);

  const measure::ConvergenceModel convergence;
  const measure::VerfploeterProber prober(topo.graph, plan, {});
  const traffic::BackgroundTrafficModel background(topo.graph, plan, {});
  test::Fnv1a conv, verf, bg;
  for (topology::AsId id = 0; id < topo.graph.size(); ++id) {
    const bool responsive = prober.responsive(id);
    const bool active = background.active(id);
    verf.bytes(&responsive, sizeof responsive);
    bg.bytes(&active, sizeof active);
  }
  for (std::size_t i = 0; i < configs.size() && i < 8; ++i) {
    const bgp::RoutingOutcome outcome = engine.run(origin, configs[i]);
    for (const double s : convergence.per_as_seconds(outcome)) {
      conv.bytes(&s, sizeof s);
    }
    const measure::InferenceResult probed =
        prober.probe(outcome, configs[i], origin_id, i);
    for (topology::AsId id = 0; id < probed.catchments.size(); ++id) {
      const bgp::LinkId link = probed.catchments[id];
      verf.bytes(&link, sizeof link);
    }
    for (const traffic::ArrivedPacket& packet : background.generate(
             bgp::extract_catchments(outcome, configs[i]), i)) {
      bg.bytes(&packet.link, sizeof packet.link);
      bg.bytes(&packet.true_source, sizeof packet.true_source);
      bg.bytes(&packet.timestamp, sizeof packet.timestamp);
      const auto bytes = packet.datagram.bytes();
      bg.bytes(bytes.data(), bytes.size());
    }
  }
  EXPECT_EQ(conv.hex(), "bbab6cb3859cddc2");
  EXPECT_EQ(verf.hex(), "2abce4f553e16c61");
  EXPECT_EQ(bg.hex(), "ff224b592abab5c2");
}

}  // namespace
}  // namespace spooftrack
