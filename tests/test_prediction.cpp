#include "core/prediction.hpp"

#include <gtest/gtest.h>

#include "bgp/catchment.hpp"
#include "core/experiment.hpp"
#include "util/stats.hpp"
#include "helpers.hpp"

namespace spooftrack::core {
namespace {

/// One configuration's encoded catchment row (CatchmentStore cells).
using Row = std::vector<std::uint8_t>;

ConfigDescriptor descriptor(std::uint32_t active, std::uint32_t prepended = 0) {
  ConfigDescriptor d;
  d.active_mask = active;
  d.prepend_mask = prepended;
  return d;
}

TEST(ConfigDescriptorTest, FromConfiguration) {
  bgp::Configuration config;
  config.announcements.push_back({0, 0, {}, {}});
  config.announcements.push_back({2, 4, {}, {}});
  const auto d = ConfigDescriptor::from(config);
  EXPECT_EQ(d.active_mask, 0b101u);
  EXPECT_EQ(d.prepend_mask, 0b100u);
  EXPECT_TRUE(d.active(0));
  EXPECT_FALSE(d.active(1));
  EXPECT_TRUE(d.prepended(2));
}

TEST(Predictor, UnseenSourceIsUnpredictable) {
  CatchmentPredictor predictor(3, 4);
  EXPECT_EQ(predictor.predict(descriptor(0b1111), 0), bgp::kNoCatchment);
}

TEST(Predictor, LearnsTotalOrderFromObservations) {
  CatchmentPredictor predictor(1, 3);
  // Source prefers link 0 > link 1 > link 2.
  predictor.observe(descriptor(0b111), Row{0});
  predictor.observe(descriptor(0b110), Row{1});
  EXPECT_EQ(predictor.predict(descriptor(0b111), 0), 0u);
  EXPECT_EQ(predictor.predict(descriptor(0b110), 0), 1u);
  EXPECT_EQ(predictor.predict(descriptor(0b100), 0), 2u);
  EXPECT_EQ(predictor.observed_configs(), 2u);
}

TEST(Predictor, PrependedLinksAreDemoted) {
  CatchmentPredictor predictor(1, 2);
  predictor.observe(descriptor(0b11), Row{0});
  // Prepending the preferred link 0 demotes it behind link 1.
  EXPECT_EQ(predictor.predict(descriptor(0b11, 0b01), 0), 1u);
  // Unless the source's history shows link 0 dominates... it doesn't
  // (we never saw it win against an unprepended alternative while itself
  // prepended), so the demotion stands. When everything is prepended the
  // first tier falls back to all active links.
  EXPECT_EQ(predictor.predict(descriptor(0b11, 0b11), 0), 0u);
}

TEST(Predictor, LocalPrefOverrideKeepsDominantLink) {
  CatchmentPredictor predictor(1, 2);
  // Source keeps link 0 even while link 0 is prepended (LocalPref-style
  // loyalty observed twice), and never chooses link 1.
  predictor.observe(descriptor(0b11, 0b01), Row{0});
  predictor.observe(descriptor(0b11, 0b01), Row{0});
  EXPECT_EQ(predictor.predict(descriptor(0b11, 0b01), 0), 0u);
}

TEST(Predictor, AccuracyCountsNonMissingCells) {
  CatchmentPredictor predictor(2, 2);
  predictor.observe(descriptor(0b11), Row{0, 1});
  const Row actual{0, bgp::kNoCatchment8};
  EXPECT_DOUBLE_EQ(predictor.accuracy(descriptor(0b11), actual), 1.0);
  const Row wrong{1, bgp::kNoCatchment8};
  EXPECT_DOUBLE_EQ(predictor.accuracy(descriptor(0b11), wrong), 0.0);
}

TEST(Predictor, RejectsMismatchedRow) {
  CatchmentPredictor predictor(2, 2);
  EXPECT_THROW(
      predictor.observe(descriptor(0b11), Row{0}),
      std::invalid_argument);
  EXPECT_THROW(CatchmentPredictor(1, 64), std::invalid_argument);
}

TEST(Predictor, HighAccuracyOnHeldOutTestbedConfigs) {
  // Train on the location phase minus a holdout, predict the holdout.
  core::TestbedConfig config;
  config.seed = 31;
  config.stub_count = 300;
  config.transit_count = 40;
  config.tier1_count = 5;
  config.measured_catchments = false;
  const PeeringTestbed testbed(config);
  auto plan = testbed.generator().location_phase();
  const auto deployment = testbed.deploy(plan);

  CatchmentPredictor predictor(deployment.sources.size(), 7);
  // Hold out every 5th configuration.
  std::vector<std::size_t> holdout;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i % 5 == 2) {
      holdout.push_back(i);
    } else {
      predictor.observe(ConfigDescriptor::from(plan[i]),
                        deployment.matrix[i]);
    }
  }
  util::Accumulator acc;
  for (std::size_t i : holdout) {
    acc.add(predictor.accuracy(ConfigDescriptor::from(plan[i]),
                               deployment.matrix[i]));
  }
  EXPECT_GT(acc.mean(), 0.85) << "predictor should generalise across "
                                 "location subsets";
}

}  // namespace
}  // namespace spooftrack::core
