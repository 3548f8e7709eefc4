#include "traffic/background.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "bgp/catchment.hpp"
#include "helpers.hpp"

namespace spooftrack::traffic {
namespace {

class BackgroundTest : public ::testing::Test {
 protected:
  BackgroundTest()
      : graph_(test::small_topology()),
        policy_(graph_, test::clean_policy_config()),
        engine_(graph_, policy_),
        origin_(test::small_origin()),
        plan_(graph_) {}

  bgp::CatchmentMap catchments() {
    const auto config = test::announce_all(2);
    const auto outcome = engine_.run(origin_, config);
    return bgp::extract_catchments(outcome, config);
  }

  topology::AsGraph graph_;
  bgp::RoutingPolicy policy_;
  bgp::Engine engine_;
  bgp::OriginSpec origin_;
  measure::AddressPlan plan_;
};

TEST_F(BackgroundTest, ActivityIsPersistentAndFractional) {
  BackgroundOptions options;
  options.active_fraction = 1.0;
  const BackgroundTrafficModel all(graph_, plan_, options);
  EXPECT_EQ(all.active_count(), graph_.size());

  options.active_fraction = 0.0;
  const BackgroundTrafficModel none(graph_, plan_, options);
  EXPECT_EQ(none.active_count(), 0u);

  options.active_fraction = 0.5;
  const BackgroundTrafficModel half_a(graph_, plan_, options);
  const BackgroundTrafficModel half_b(graph_, plan_, options);
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    EXPECT_EQ(half_a.active(id), half_b.active(id));
  }
}

TEST_F(BackgroundTest, ClientAddressesBelongToTheAs) {
  const BackgroundTrafficModel model(graph_, plan_, {});
  for (topology::AsId id = 0; id < graph_.size(); ++id) {
    for (std::uint32_t host = 0; host < 3; ++host) {
      EXPECT_TRUE(plan_.prefix_of(id).contains(model.client_address(id, host)));
    }
  }
  EXPECT_NE(model.client_address(0, 0), model.client_address(0, 1));
}

TEST_F(BackgroundTest, GeneratedPacketsArriveOnCatchmentLinks) {
  BackgroundOptions options;
  options.active_fraction = 1.0;
  const BackgroundTrafficModel model(graph_, plan_, options);
  const auto map = catchments();
  const auto arrivals = model.generate(map, 0);
  ASSERT_FALSE(arrivals.empty());
  for (const auto& arrived : arrivals) {
    EXPECT_EQ(arrived.link, map[arrived.true_source]);
    const auto ip = arrived.datagram.ip();
    ASSERT_TRUE(ip.has_value());
    // Legitimate: the source address really belongs to the sender AS.
    EXPECT_TRUE(plan_.prefix_of(arrived.true_source).contains(ip->source));
  }
}

TEST_F(BackgroundTest, TrainedClassifierAcceptsLegitRejectsSpoofed) {
  BackgroundOptions options;
  options.active_fraction = 1.0;
  const BackgroundTrafficModel model(graph_, plan_, options);
  const auto map = catchments();

  ValidSourceInference inference;
  model.train(inference, map);

  // Legitimate traffic classifies clean.
  for (const auto& arrived : model.generate(map, 7)) {
    const auto ip = arrived.datagram.ip();
    EXPECT_EQ(inference.classify(arrived.link, ip->source),
              SourceVerdict::kLegitimate);
  }

  // A spoofed packet (source = a's space) arriving on the wrong link.
  const auto a_id = *graph_.id_of(test::kA);
  const auto a_addr = model.client_address(a_id, 0);
  const bgp::LinkId wrong = map[a_id] == 0 ? 1 : 0;
  EXPECT_EQ(inference.classify(wrong, a_addr),
            SourceVerdict::kSpoofedWrongLink);
  // An unknown prefix is flagged outright.
  EXPECT_EQ(inference.classify(0, netcore::Ipv4Addr{203, 0, 113, 1}),
            SourceVerdict::kSpoofedUnknownSource);
}

TEST_F(BackgroundTest, InactiveAsesProduceNothing) {
  BackgroundOptions options;
  options.active_fraction = 0.0;
  const BackgroundTrafficModel model(graph_, plan_, options);
  EXPECT_TRUE(model.generate(catchments(), 1).empty());
}

TEST_F(BackgroundTest, RejectsNegativeOrNanPacketRate) {
  BackgroundOptions options;
  for (const double bad : {-5.0, std::nan("")}) {
    options.packets_per_as = bad;
    EXPECT_THROW(BackgroundTrafficModel(graph_, plan_, options),
                 std::invalid_argument)
        << bad;
  }
  for (const double good : {0.0, 4.5}) {
    options.packets_per_as = good;
    EXPECT_NO_THROW(BackgroundTrafficModel(graph_, plan_, options)) << good;
  }
}

TEST_F(BackgroundTest, SaltVariesVolumeDeterministically) {
  BackgroundOptions options;
  options.active_fraction = 1.0;
  const BackgroundTrafficModel model(graph_, plan_, options);
  const auto map = catchments();
  const auto a = model.generate(map, 1);
  const auto b = model.generate(map, 1);
  EXPECT_EQ(a.size(), b.size());
}

}  // namespace
}  // namespace spooftrack::traffic
