// Recovery harness for spooftrack::journal (docs/checkpointing.md).
//
// Two layers. Unit tests pin the on-disk format: CRC32C framing, atomic
// segment rotation, torn-tail truncation, identity binding, and the
// partial-artifact digest chain. The crash matrix is the acceptance
// contract: a deterministic kill-point at every journal barrier, crossed
// with worker counts {1, 2, 8} and pipeline depths {1, 4} under an active
// fault plan, must leave a journal from which --resume reproduces the
// uninterrupted deployment byte-for-byte — and resuming twice is a no-op.
#include "journal/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "util/crc32c.hpp"
#include "util/fsio.hpp"

namespace spooftrack::journal {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("spooftrack-journal-" + tag + "-" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

ConfigRecord sample_record(std::uint64_t i) {
  ConfigRecord record;
  record.config_index = i;
  record.config_hash = 0x1234'5678 + i * 31;
  record.chain = static_cast<std::uint32_t>(i % 3);
  record.chain_pos = static_cast<std::uint32_t>(i / 3);
  record.row_digest = 0xD16E57 + i;
  record.grade = i % 4 == 3 ? fault::Grade::kDegraded : fault::Grade::kGood;
  record.deploy_attempts = 1 + static_cast<std::uint32_t>(i % 2);
  record.feed_entries = 40 + static_cast<std::uint32_t>(i);
  record.feed_faults = static_cast<std::uint32_t>(i % 5);
  record.traces = 120;
  record.trace_faults = static_cast<std::uint32_t>(i % 7);
  return record;
}

TEST(Crc32c, MatchesKnownVector) {
  // The canonical CRC32C check value for "123456789".
  EXPECT_EQ(util::crc32c("123456789"), 0xE3069283u);
  // Incremental == one-shot.
  std::uint32_t crc = util::crc32c_init();
  crc = util::crc32c_update(crc, "1234", 4);
  crc = util::crc32c_update(crc, "56789", 5);
  EXPECT_EQ(util::crc32c_final(crc), 0xE3069283u);
}

TEST(JournalWriter, AppendRotateReplayRoundTrip) {
  ScratchDir dir("roundtrip");
  const CampaignIdentity identity{0xABCDEF, 11};
  JournalOptions options;
  options.dir = dir.str();
  options.segment_records = 3;
  options.fsync = false;

  std::vector<ConfigRecord> written;
  {
    JournalWriter writer(options, identity);
    for (std::uint64_t i = 0; i < 10; ++i) {
      written.push_back(sample_record(i));
      writer.append(written.back());
    }
  }
  // 10 records at 3/segment: three sealed segments plus an active one.
  EXPECT_TRUE(fs::exists(dir.path() / "seg-000000.wal"));
  EXPECT_TRUE(fs::exists(dir.path() / "seg-000002.wal"));
  EXPECT_TRUE(fs::exists(dir.path() / "seg-000003.open"));

  const ReplayResult replayed = replay(dir.str(), identity);
  EXPECT_EQ(replayed.records, written);
  EXPECT_EQ(replayed.stats.records, 10u);
  EXPECT_EQ(replayed.stats.torn_bytes, 0u);

  // Reopening for resume recovers the same records and appends after them.
  JournalOptions resume = options;
  resume.resume = true;
  JournalWriter writer(resume, identity);
  EXPECT_EQ(writer.recovered(), written);
  writer.append(sample_record(10));
  EXPECT_EQ(replay(dir.str(), identity).records.size(), 11u);
}

TEST(JournalWriter, FreshJournalWipesPreviousState) {
  ScratchDir dir("wipe");
  const CampaignIdentity identity{7, 3};
  JournalOptions options;
  options.dir = dir.str();
  options.fsync = false;
  {
    JournalWriter writer(options, identity);
    writer.append(sample_record(0));
  }
  {
    // Same dir, fresh (resume = false): previous records must not leak.
    JournalWriter writer(options, identity);
  }
  EXPECT_TRUE(replay(dir.str(), identity).records.empty());
}

TEST(JournalWriter, TornTailIsTruncatedOnRecovery) {
  ScratchDir dir("torn");
  const CampaignIdentity identity{42, 8};
  JournalOptions options;
  options.dir = dir.str();
  options.segment_records = 100;
  options.fsync = false;

  std::vector<ConfigRecord> written;
  {
    JournalWriter writer(options, identity);
    for (std::uint64_t i = 0; i < 4; ++i) {
      written.push_back(sample_record(i));
      writer.append(written.back());
    }
  }
  // Simulate a crash mid-append: half a frame of garbage at the tail.
  {
    std::ofstream out(dir.path() / "seg-000000.open",
                      std::ios::binary | std::ios::app);
    out.write("\x30\x00\x00\x00gar", 7);
  }
  JournalOptions resume = options;
  resume.resume = true;
  JournalWriter writer(resume, identity);
  EXPECT_EQ(writer.recovered(), written);
  EXPECT_GT(writer.recovery().torn_bytes, 0u);
  // The torn bytes are gone from disk: appending after recovery yields a
  // fully valid journal again.
  writer.append(sample_record(4));
  EXPECT_EQ(replay(dir.str(), identity).records.size(), 5u);
}

TEST(JournalWriter, IdentityMismatchIsJournalError) {
  ScratchDir dir("identity");
  JournalOptions options;
  options.dir = dir.str();
  options.fsync = false;
  {
    JournalWriter writer(options, CampaignIdentity{1, 4});
    writer.append(sample_record(0));
  }
  JournalOptions resume = options;
  resume.resume = true;
  EXPECT_THROW(JournalWriter(resume, CampaignIdentity{2, 4}), JournalError);
  EXPECT_THROW(replay(dir.str(), CampaignIdentity{1, 5}), JournalError);
}

TEST(JournalWriter, SealedSegmentCorruptionIsFatal) {
  ScratchDir dir("sealed");
  const CampaignIdentity identity{9, 8};
  JournalOptions options;
  options.dir = dir.str();
  options.segment_records = 2;
  options.fsync = false;
  {
    JournalWriter writer(options, identity);
    for (std::uint64_t i = 0; i < 5; ++i) writer.append(sample_record(i));
  }
  // Flip one payload byte in a *sealed* segment: unlike the active tail,
  // sealed corruption is unrecoverable.
  const fs::path sealed = dir.path() / "seg-000001.wal";
  std::string bytes = util::read_file(sealed.string());
  bytes[bytes.size() / 2] ^= 0x01;
  util::atomic_write_file(sealed.string(), bytes, false);
  JournalOptions resume = options;
  resume.resume = true;
  EXPECT_THROW(JournalWriter(resume, identity), JournalError);
  EXPECT_THROW(replay(dir.str(), identity), JournalError);
}

TEST(JournalWriter, RecordOutsidePlanIsJournalError) {
  ScratchDir dir("outside");
  const CampaignIdentity identity{3, 8};
  JournalOptions options;
  options.dir = dir.str();
  options.fsync = false;
  {
    // The writer trusts its caller; a record beyond the plan is caught by
    // the recovery scan, not by append().
    JournalWriter writer(options, identity);
    writer.append(sample_record(9));
  }
  JournalOptions resume = options;
  resume.resume = true;
  EXPECT_THROW(
      {
        JournalWriter reopened(resume, identity);
        (void)reopened;
      },
      JournalError);
  EXPECT_THROW(replay(dir.str(), identity), JournalError);
}

TEST(PartialArtifact, RoundTripAndDigestVerification) {
  ScratchDir dir("partial");
  PartialMeasurement partial;
  partial.inference.catchments.link_of = {0, 1, 2, bgp::kNoCatchment, 1};
  partial.inference.observed = {1, 1, 1, 0, 1};
  partial.inference.covered_count = 4;
  partial.inference.multi_catchment_fraction = 0.25;
  partial.feed_entries = 17;
  partial.feed_faults = 2;
  partial.traces = 40;
  partial.trace_faults = 3;

  const std::uint64_t digest = save_partial(dir.str(), 5, partial, false);
  EXPECT_EQ(load_partial(dir.str(), 5, digest), partial);

  // Wrong digest, wrong index, missing file: all JournalError.
  EXPECT_THROW(load_partial(dir.str(), 5, digest ^ 1), JournalError);
  EXPECT_THROW(load_partial(dir.str(), 6, digest), JournalError);

  // Every single-byte truncation and every single-byte flip is rejected.
  const std::string path = partial_path(dir.str(), 5);
  const std::string bytes = util::read_file(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    util::atomic_write_file(path, std::string_view(bytes).substr(0, len),
                            false);
    EXPECT_THROW(load_partial(dir.str(), 5, digest), JournalError)
        << "truncated at " << len;
  }
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
    util::atomic_write_file(path, flipped, false);
    EXPECT_THROW(load_partial(dir.str(), 5, digest), JournalError)
        << "flipped at " << at;
  }
}

// ---------------------------------------------------------------------------
// Crash matrix: kill-point x workers x depth, byte-identical resume.
// ---------------------------------------------------------------------------

core::TestbedConfig crash_testbed() {
  core::TestbedConfig config;
  config.seed = 11;
  config.tier1_count = 4;
  config.transit_count = 25;
  config.stub_count = 150;
  config.probe_count = 60;
  config.traceroute_rounds = 1;
  config.feed.peer_count = 30;
  // Active fault plan: measurement-plane faults plus deploy failures with a
  // tight retry budget, so the journal also has to carry degraded grades,
  // retry counts and abandoned configurations through a resume.
  config.faults.set_all(0.05);
  config.faults.deploy_failure_prob = 0.3;
  config.faults.deploy_retry_budget = 1;
  return config;
}

std::vector<bgp::Configuration> crash_plan(
    const core::PeeringTestbed& testbed) {
  core::GeneratorOptions gen;
  gen.max_removals = 1;
  auto plan = testbed.generator(gen).location_phase();
  plan.push_back(plan[2]);  // memo fan-out: shared unique outcome
  plan.push_back(plan[0]);
  return plan;
}

core::DeploymentArtifact deploy_artifact(const core::TestbedConfig& config) {
  const core::PeeringTestbed testbed(config);
  const auto result = testbed.deploy(crash_plan(testbed));
  return core::make_artifact(result, config.seed, testbed.graph().size(),
                             testbed.origin().links.size());
}

void expect_same_quality(const core::DeploymentResult& a,
                         const core::DeploymentResult& b) {
  ASSERT_EQ(a.quality.size(), b.quality.size());
  for (std::size_t i = 0; i < a.quality.size(); ++i) {
    EXPECT_EQ(a.quality[i], b.quality[i]) << "config " << i;
  }
}

TEST(CrashMatrix, EveryKillPointResumesByteIdentical) {
  const core::TestbedConfig base = crash_testbed();
  const core::DeploymentArtifact reference = deploy_artifact(base);

  const fault::Site sites[] = {
      fault::Site::kJournalPreWrite,
      fault::Site::kJournalMidRecord,
      fault::Site::kJournalPreRename,
      fault::Site::kJournalPreFsync,
  };
  const std::size_t workers[] = {1, 2, 8};
  const std::size_t depths[] = {1, 4};

  ScratchDir dir("matrix");
  std::size_t cell = 0;
  for (const fault::Site site : sites) {
    for (const std::size_t worker_count : workers) {
      for (const std::size_t depth : depths) {
        SCOPED_TRACE("site=" + std::string(fault::site_name(site)) +
                     " workers=" + std::to_string(worker_count) +
                     " depth=" + std::to_string(depth));
        const std::string journal_dir =
            (dir.path() / ("cell-" + std::to_string(cell++))).string();

        core::TestbedConfig crashed = base;
        crashed.measure_workers = worker_count;
        crashed.pipeline_depth = depth;
        crashed.journal.dir = journal_dir;
        crashed.journal.segment_records = 3;  // rotations mid-campaign
        crashed.journal.fsync = false;        // format + barriers, full speed
        crashed.faults.crash_site = site;
        // Appends commit one config each; rotation barriers fire once per
        // sealed segment. Ordinal 2 lands mid-campaign for both kinds.
        crashed.faults.crash_at =
            (site == fault::Site::kJournalPreRename ||
             site == fault::Site::kJournalPreFsync)
                ? 2
                : 5;
        {
          const core::PeeringTestbed testbed(crashed);
          EXPECT_THROW(testbed.deploy(crash_plan(testbed)),
                       fault::SimulatedCrash);
        }

        core::TestbedConfig resumed = crashed;
        resumed.faults.crash_at = 0;  // the kill-point is gone on restart
        resumed.journal.resume = true;
        const core::PeeringTestbed testbed(resumed);
        const auto result = testbed.deploy(crash_plan(testbed));
        EXPECT_GT(result.resumed_configs, 0u);
        const auto artifact =
            core::make_artifact(result, resumed.seed, testbed.graph().size(),
                                testbed.origin().links.size());
        EXPECT_EQ(artifact, reference);
      }
    }
  }
}

TEST(CrashMatrix, DoubleResumeIsIdempotent) {
  const core::TestbedConfig base = crash_testbed();
  const core::DeploymentArtifact reference = deploy_artifact(base);
  ScratchDir dir("double");

  core::TestbedConfig crashed = base;
  crashed.journal.dir = dir.str();
  crashed.journal.segment_records = 3;
  crashed.journal.fsync = false;
  crashed.faults.crash_site = fault::Site::kJournalMidRecord;
  crashed.faults.crash_at = 4;
  {
    const core::PeeringTestbed testbed(crashed);
    EXPECT_THROW(testbed.deploy(crash_plan(testbed)), fault::SimulatedCrash);
  }

  core::TestbedConfig resumed = crashed;
  resumed.faults.crash_at = 0;
  resumed.journal.resume = true;
  const core::PeeringTestbed testbed(resumed);
  const auto first = testbed.deploy(crash_plan(testbed));
  const auto second = testbed.deploy(crash_plan(testbed));
  EXPECT_EQ(core::make_artifact(first, base.seed, testbed.graph().size(), 7),
            core::make_artifact(second, base.seed, testbed.graph().size(), 7));
  EXPECT_EQ(core::make_artifact(second, base.seed, testbed.graph().size(),
                                testbed.origin().links.size()),
            reference);
  // The second resume found every configuration already committed.
  EXPECT_EQ(second.resumed_configs, first.configs.size());
  expect_same_quality(first, second);
}

TEST(CrashMatrix, ResumeAcrossDifferentParallelism) {
  // Crash under a single-worker barrier-ish run, resume with 8 workers and
  // a deep pipeline: identity excludes execution shape, results don't move.
  const core::TestbedConfig base = crash_testbed();
  const core::DeploymentArtifact reference = deploy_artifact(base);
  ScratchDir dir("reshape");

  core::TestbedConfig crashed = base;
  crashed.measure_workers = 1;
  crashed.pipeline_depth = 1;
  crashed.journal.dir = dir.str();
  crashed.journal.fsync = false;
  crashed.faults.crash_site = fault::Site::kJournalPreWrite;
  crashed.faults.crash_at = 3;
  {
    const core::PeeringTestbed testbed(crashed);
    EXPECT_THROW(testbed.deploy(crash_plan(testbed)), fault::SimulatedCrash);
  }

  core::TestbedConfig resumed = crashed;
  resumed.measure_workers = 8;
  resumed.pipeline_depth = 4;
  resumed.faults.crash_at = 0;
  resumed.journal.resume = true;
  const core::PeeringTestbed testbed(resumed);
  const auto result = testbed.deploy(crash_plan(testbed));
  EXPECT_EQ(core::make_artifact(result, base.seed, testbed.graph().size(),
                                testbed.origin().links.size()),
            reference);
}

TEST(Journal, ZeroRateCrashPlanWithJournalMatchesJournalOff) {
  // Journaling plus an armed-but-never-reached kill-point must not perturb
  // a single byte of the deployment (the fault layer's no-op contract
  // extended to the journal layer).
  core::TestbedConfig plain = crash_testbed();
  plain.faults = {};  // zero-rate: injector disabled
  const core::DeploymentArtifact reference = deploy_artifact(plain);

  ScratchDir dir("zero");
  core::TestbedConfig journaled = plain;
  journaled.journal.dir = dir.str();
  journaled.journal.fsync = false;
  journaled.faults.crash_site = fault::Site::kJournalPreWrite;
  journaled.faults.crash_at = 1u << 20;  // armed, never reached
  EXPECT_EQ(deploy_artifact(journaled), reference);
}

#if SPOOFTRACK_OBS_ENABLED
TEST(Journal, JournaledDeployPlansTheCampaignOnce) {
  // The journal's chain coordinates and the schedule share one plan, so a
  // journaled deploy pays for one similarity ordering, not two.
  ScratchDir dir("plan-once");
  core::TestbedConfig config = crash_testbed();
  config.journal.dir = dir.str();
  config.journal.fsync = false;
  const core::PeeringTestbed testbed(config);
  const auto plan = crash_plan(testbed);
  const std::size_t unique = core::plan_campaign(plan).unique.size();

  const auto before = obs::Registry::global().snapshot();
  testbed.deploy(plan);
  const auto after = obs::Registry::global().snapshot();
  const auto metric = [](const obs::Snapshot& snap, const char* name) {
    const obs::MetricSnapshot* m = snap.find(name);
    return m == nullptr ? obs::MetricSnapshot{} : *m;
  };
  EXPECT_EQ(metric(after, "campaign.order_ns").count -
                metric(before, "campaign.order_ns").count,
            1u);
  EXPECT_EQ(metric(after, "campaign.unique_configs").value -
                metric(before, "campaign.unique_configs").value,
            unique);
}
#endif  // SPOOFTRACK_OBS_ENABLED

TEST(Journal, GroundTruthDeploymentRejectsJournaling) {
  core::TestbedConfig config = crash_testbed();
  config.faults = {};
  config.measured_catchments = false;
  config.journal.dir = "/tmp/never-created";
  const core::PeeringTestbed testbed(config);
  EXPECT_THROW(testbed.deploy(crash_plan(testbed)), std::invalid_argument);
}

TEST(Journal, CorruptPartialOnResumeIsJournalError) {
  const core::TestbedConfig base = crash_testbed();
  ScratchDir dir("badpart");

  core::TestbedConfig crashed = base;
  crashed.journal.dir = dir.str();
  crashed.journal.fsync = false;
  crashed.faults.crash_site = fault::Site::kJournalPreWrite;
  crashed.faults.crash_at = 4;
  {
    const core::PeeringTestbed testbed(crashed);
    EXPECT_THROW(testbed.deploy(crash_plan(testbed)), fault::SimulatedCrash);
  }
  // Corrupt one committed partial: the recorded digest no longer matches.
  const std::string partial = partial_path(dir.str(), 0);
  std::string bytes = util::read_file(partial);
  bytes[bytes.size() / 3] ^= 0x40;
  util::atomic_write_file(partial, bytes, false);

  core::TestbedConfig resumed = crashed;
  resumed.faults.crash_at = 0;
  resumed.journal.resume = true;
  const core::PeeringTestbed testbed(resumed);
  EXPECT_THROW(testbed.deploy(crash_plan(testbed)), JournalError);
}

}  // namespace
}  // namespace spooftrack::journal
