// Recovery harness for spooftrack::journal (docs/checkpointing.md).
//
// Two layers. Unit tests pin the on-disk format: CRC32C frames that carry
// each configuration's measured row, atomic segment rotation, identity and
// format-version binding, and what damage means — any damage to a sealed
// record is a JournalError, damage in the active segment is a torn tail
// that recovery truncates and the deploy re-measures, and a CRC-valid row
// that does not fit the testbed is a JournalError. The crash matrix is the
// acceptance
// contract: a deterministic kill-point at every journal barrier, crossed
// with worker counts {1, 2, 8} and pipeline depths {1, 4} under an active
// fault plan, must leave a journal from which --resume reproduces the
// uninterrupted deployment byte-for-byte — and resuming twice is a no-op.
#include "journal/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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
  record.grade = i % 4 == 3 ? fault::Grade::kDegraded : fault::Grade::kGood;
  record.deploy_attempts = 1 + static_cast<std::uint32_t>(i % 2);
  record.feed_entries = 40 + static_cast<std::uint32_t>(i);
  record.feed_faults = static_cast<std::uint32_t>(i % 5);
  record.traces = 120;
  record.trace_faults = static_cast<std::uint32_t>(i % 7);
  record.multi_catchment_fraction = 0.03125 * static_cast<double>(i);
  record.row = {static_cast<std::uint8_t>(i % 7), bgp::kNoCatchment8, 3, 0,
                6, bgp::kNoCatchment8};
  return record;
}

/// Replaces a file's bytes in place (no sync: the tests only need readers
/// in this process to see them).
void overwrite(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Offset of the last record frame in a segment's bytes.
std::size_t last_frame(const std::string& segment) {
  constexpr std::size_t kHeaderBytes = 36;
  std::size_t last = kHeaderBytes;
  for (std::size_t at = kHeaderBytes; at + 8 <= segment.size();) {
    std::uint32_t len = 0;
    std::memcpy(&len, segment.data() + at, sizeof len);
    last = at;
    at += 8 + len;
  }
  return last;
}

/// Every single-byte flip and every cut inside [begin, bytes.size()): the
/// damage a record at `begin` that ends the file can suffer.
void for_each_damage(
    const std::string& bytes, std::size_t begin,
    const std::function<void(const std::string&, const std::string&)>& check) {
  for (std::size_t at = begin; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
    check(flipped, "byte " + std::to_string(at) + " flipped");
  }
  for (std::size_t len = begin + 1; len < bytes.size(); ++len) {
    check(bytes.substr(0, len), "cut to " + std::to_string(len) + " bytes");
  }
}

/// The campaign identity in a segment header, after the u64 magic, u32
/// version and u32 sequence.
CampaignIdentity identity_of(const fs::path& segment) {
  const std::string bytes = util::read_file(segment.string());
  CampaignIdentity identity;
  if (bytes.size() < 32) {
    ADD_FAILURE() << segment << " has no segment header";
    return identity;
  }
  std::memcpy(&identity.hash, bytes.data() + 16, sizeof identity.hash);
  std::memcpy(&identity.config_count, bytes.data() + 24,
              sizeof identity.config_count);
  return identity;
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
  util::atomic_write_file(sealed.string(), bytes);
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

TEST(JournalWriter, AnyDamageToASealedRecordIsJournalError) {
  ScratchDir dir("sealed-damage");
  const CampaignIdentity identity{9, 8};
  JournalOptions options;
  options.dir = dir.str();
  options.segment_records = 2;
  options.fsync = false;
  {
    JournalWriter writer(options, identity);
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(sample_record(i));
  }
  // seg-000000.wal ends with record 1 and its row; the frame CRC is the
  // only check that covers the row.
  ASSERT_FALSE(sample_record(1).row.empty());
  const fs::path sealed = dir.path() / "seg-000000.wal";
  const std::string bytes = util::read_file(sealed.string());
  JournalOptions resume = options;
  resume.resume = true;
  for_each_damage(bytes, last_frame(bytes),
                  [&](const std::string& damaged, const std::string& what) {
                    overwrite(sealed, damaged);
                    EXPECT_THROW(replay(dir.str(), identity), JournalError)
                        << what;
                    EXPECT_THROW(JournalWriter(resume, identity),
                                 JournalError)
                        << what;
                  });
}

TEST(JournalWriter, AnyDamageToAnActiveRecordIsATornTail) {
  ScratchDir dir("active-damage");
  const CampaignIdentity identity{9, 8};
  JournalOptions options;
  options.dir = dir.str();
  options.fsync = false;
  std::vector<ConfigRecord> written;
  {
    JournalWriter writer(options, identity);
    for (std::uint64_t i = 0; i < 3; ++i) {
      written.push_back(sample_record(i));
      writer.append(written.back());
    }
  }
  const std::vector<ConfigRecord> kept(written.begin(), written.end() - 1);
  const fs::path active = dir.path() / "seg-000000.open";
  const std::string bytes = util::read_file(active.string());
  const std::size_t begin = last_frame(bytes);
  JournalOptions resume = options;
  resume.resume = true;
  for_each_damage(bytes, begin, [&](const std::string& damaged,
                                    const std::string& what) {
    SCOPED_TRACE(what);
    overwrite(active, damaged);
    JournalWriter writer(resume, identity);
    EXPECT_EQ(writer.recovered(), kept);
    EXPECT_EQ(writer.recovery().torn_bytes, damaged.size() - begin);
    // Recovery truncated the damage: re-committing the record restores
    // the whole journal.
    writer.append(written.back());
    EXPECT_EQ(replay(dir.str(), identity).records, written);
  });
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

TEST(CrashMatrix, DamagedActiveRecordIsRemeasuredByteIdentical) {
  const core::TestbedConfig base = crash_testbed();
  const core::DeploymentArtifact reference = deploy_artifact(base);
  ScratchDir dir("remeasure");

  core::TestbedConfig journaled = base;
  journaled.journal.dir = dir.str();
  journaled.journal.segment_records = 4;
  journaled.journal.fsync = false;
  {
    const core::PeeringTestbed testbed(journaled);
    testbed.deploy(crash_plan(testbed));
  }
  // Ten records at four per segment: the active seg-000002.open holds
  // records 8 and 9. Damage the last one, which carries a row.
  const fs::path active = dir.path() / "seg-000002.open";
  const auto committed =
      replay(dir.str(), identity_of(active)).records;
  ASSERT_EQ(committed.size(), 10u);
  ASSERT_FALSE(committed.back().row.empty());
  const std::string bytes = util::read_file(active.string());

  core::TestbedConfig resumed = journaled;
  resumed.journal.resume = true;
  const core::PeeringTestbed testbed(resumed);
  const auto plan = crash_plan(testbed);
  for_each_damage(bytes, last_frame(bytes), [&](const std::string& damaged,
                                                const std::string& what) {
    SCOPED_TRACE(what);
    overwrite(active, damaged);
    const auto result = testbed.deploy(plan);
    EXPECT_EQ(result.resumed_configs, plan.size() - 1);
    EXPECT_EQ(core::make_artifact(result, resumed.seed,
                                  testbed.graph().size(),
                                  testbed.origin().links.size()),
              reference);
  });
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

  // The durable form: an fdatasync per record and five records per
  // segment, so the ten commits also cross two atomic rotations.
  ScratchDir durable_dir("zero-fsync");
  core::TestbedConfig durable = journaled;
  durable.journal.dir = durable_dir.str();
  durable.journal.fsync = true;
  durable.journal.segment_records = 5;
  EXPECT_EQ(deploy_artifact(durable), reference);
  EXPECT_TRUE(fs::exists(durable_dir.path() / "seg-000001.wal"));
}

#if SPOOFTRACK_OBS_ENABLED
TEST(Journal, JournaledDeployPlansTheCampaignOnce) {
  // Journal setup and the schedule share the deploy's one plan, so a
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

TEST(Journal, JournaledDeployWritesOnlySegments) {
  // The measured rows travel inside the records: ten records at three per
  // segment leave three sealed segments, the active one and nothing else.
  ScratchDir dir("only-segments");
  core::TestbedConfig config = crash_testbed();
  config.journal.dir = dir.str();
  config.journal.segment_records = 3;
  config.journal.fsync = false;
  {
    const core::PeeringTestbed testbed(config);
    testbed.deploy(crash_plan(testbed));
  }
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir.path())) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"seg-000000.wal",
                                             "seg-000001.wal",
                                             "seg-000002.wal",
                                             "seg-000003.open"}));
}

TEST(Journal, RecordRowIsTheMeasuredMapsBytes) {
  // A committed record's row is a copy of its measured map's cells, and a
  // resume adopts those bytes back into maps equal to the measured ones.
  ScratchDir dir("row-bytes");
  core::TestbedConfig config = crash_testbed();
  config.journal.dir = dir.str();
  config.journal.fsync = false;
  std::vector<bgp::Configuration> plan;
  core::DeploymentResult measured;
  {
    const core::PeeringTestbed testbed(config);
    plan = crash_plan(testbed);
    measured = testbed.deploy(plan);
  }
  const std::vector<ConfigRecord> committed =
      replay(dir.str(), identity_of(dir.path() / "seg-000000.open")).records;
  ASSERT_EQ(committed.size(), plan.size());
  std::size_t rows = 0;
  for (const ConfigRecord& record : committed) {
    SCOPED_TRACE(record.config_index);
    if (record.abandoned()) {
      EXPECT_TRUE(record.row.empty());
      continue;
    }
    ++rows;
    const auto cells =
        measured.measured[record.config_index].catchments.cells();
    EXPECT_TRUE(std::equal(record.row.begin(), record.row.end(),
                           cells.begin(), cells.end()));
  }
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows, committed.size());  // the fault plan abandons some

  config.journal.resume = true;
  const core::PeeringTestbed testbed(config);
  const core::DeploymentResult resumed = testbed.deploy(plan);
  EXPECT_EQ(resumed.resumed_configs, plan.size());
  ASSERT_EQ(resumed.measured.size(), measured.measured.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_TRUE(resumed.measured[i].catchments ==
                measured.measured[i].catchments)
        << "config " << i;
  }
}

template <typename T>
void put(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

/// A segment as format 1 wrote it: the header at version 1, then one record
/// in that format's layout (index, config hash, chain coordinates, the
/// digest of a partial-artifact file, grade and quality counts).
std::string format_one_segment(const CampaignIdentity& identity) {
  std::string segment;
  put<std::uint64_t>(segment, 0x4C4E4A464F4F5053ULL);  // "SPOOFJNL"
  put<std::uint32_t>(segment, 1);                      // format version
  put<std::uint32_t>(segment, 0);                      // segment sequence
  put(segment, identity.hash);
  put(segment, identity.config_count);
  put(segment, util::crc32c(segment.data(), segment.size()));

  std::string payload;
  put<std::uint8_t>(payload, 2);  // record type
  put<std::uint64_t>(payload, 0);
  put<std::uint64_t>(payload, 0xC0FF'EE00);
  put<std::uint32_t>(payload, 0);  // chain
  put<std::uint32_t>(payload, 0);  // chain position
  put<std::uint64_t>(payload, 0xD16E57);
  put<std::uint8_t>(payload, 0);   // grade
  for (const std::uint32_t count : {1u, 0u, 0u, 0u, 0u}) put(payload, count);
  put(segment, static_cast<std::uint32_t>(payload.size()));
  put(segment, util::crc32c(payload.data(), payload.size()));
  return segment + payload;
}

/// Runs `resume` and expects the JournalError that names the format.
void expect_version_error(const std::function<void()>& resume,
                          const std::string& what) {
  try {
    resume();
    ADD_FAILURE() << what << ": no JournalError";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(Journal, FormatOneJournalIsJournalErrorOnResume) {
  // A format-1 journal of this very campaign: only the version differs.
  ScratchDir dir("format-one");
  core::TestbedConfig journaled = crash_testbed();
  journaled.journal.dir = dir.str();
  journaled.journal.fsync = false;
  {
    const core::PeeringTestbed testbed(journaled);
    testbed.deploy(crash_plan(testbed));
  }
  const fs::path active = dir.path() / "seg-000000.open";
  const CampaignIdentity identity = identity_of(active);
  core::TestbedConfig resumed = journaled;
  resumed.journal.resume = true;
  const core::PeeringTestbed testbed(resumed);

  for (const char* name : {"seg-000000.open", "seg-000000.wal"}) {
    SCOPED_TRACE(name);
    fs::remove_all(dir.path());
    fs::create_directories(dir.path());
    overwrite(dir.path() / name, format_one_segment(identity));
    expect_version_error([&] { replay(dir.str(), identity); }, "replay");
    expect_version_error(
        [&] { JournalWriter writer(resumed.journal, identity); },
        "writer resume");
    expect_version_error([&] { testbed.deploy(crash_plan(testbed)); },
                         "deploy resume");
  }
}

TEST(Journal, RecoveredRowThatDoesNotFitTheTestbedIsJournalError) {
  // CRC-valid records whose row cannot belong to this testbed: the frame
  // CRC passes, so the deploy's row check is what stops them.
  core::TestbedConfig journaled = crash_testbed();
  ScratchDir dir("bad-row");
  journaled.journal.dir = dir.str();
  journaled.journal.fsync = false;
  {
    const core::PeeringTestbed testbed(journaled);
    testbed.deploy(crash_plan(testbed));
  }
  const CampaignIdentity identity =
      identity_of(dir.path() / "seg-000000.open");
  const std::vector<ConfigRecord> committed =
      replay(dir.str(), identity).records;
  const auto is_abandoned = [](const ConfigRecord& record) {
    return record.abandoned();
  };
  const auto measured =
      std::find_if_not(committed.begin(), committed.end(), is_abandoned);
  const auto abandoned =
      std::find_if(committed.begin(), committed.end(), is_abandoned);
  ASSERT_NE(measured, committed.end());
  ASSERT_NE(abandoned, committed.end());

  core::TestbedConfig resumed = journaled;
  resumed.journal.resume = true;
  const core::PeeringTestbed testbed(resumed);
  const auto plan = crash_plan(testbed);
  const auto link_count =
      static_cast<std::uint8_t>(testbed.origin().links.size());
  using Tamper = std::function<void(std::vector<std::uint8_t>&)>;
  const auto rewrite = [&](std::size_t i, const Tamper& tamper) {
    std::vector<ConfigRecord> records = committed;
    tamper(records[i].row);
    JournalWriter writer(journaled.journal, identity);
    for (const ConfigRecord& record : records) writer.append(record);
  };
  const std::size_t m = measured->config_index;
  const std::size_t a = abandoned->config_index;

  // The rewrite itself is sound: untouched records resume cleanly.
  rewrite(m, [](std::vector<std::uint8_t>&) {});
  EXPECT_EQ(testbed.deploy(plan).resumed_configs, plan.size());

  rewrite(m, [](std::vector<std::uint8_t>& row) { row.pop_back(); });
  EXPECT_THROW(testbed.deploy(plan), JournalError) << "short row";
  rewrite(m, [](std::vector<std::uint8_t>& row) {
    row.push_back(bgp::kNoCatchment8);
  });
  EXPECT_THROW(testbed.deploy(plan), JournalError) << "long row";
  rewrite(m, [&](std::vector<std::uint8_t>& row) { row.back() = link_count; });
  EXPECT_THROW(testbed.deploy(plan), JournalError) << "unknown link";
  rewrite(a, [&](std::vector<std::uint8_t>& row) {
    row.assign(testbed.graph().size(), bgp::kNoCatchment8);
  });
  EXPECT_THROW(testbed.deploy(plan), JournalError) << "abandoned with a row";
}

}  // namespace
}  // namespace spooftrack::journal
