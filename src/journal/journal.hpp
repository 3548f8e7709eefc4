// spooftrack::journal — crash-consistent campaign journal
// (docs/checkpointing.md).
//
// A measurement campaign on PEERING runs hundreds of configurations over
// hours; operator restarts and mid-campaign failures are the norm, and
// losing the whole run to one crash is what this subsystem removes. The
// journal is a segmented write-ahead log of per-configuration completion
// records: once a configuration's measurement completes, one CRC32C-framed
// record carrying its measured row commits it with one append and one
// fdatasync. `--resume` replays the journal, decodes every committed row
// back into the deployment, skips those configurations' measurements, and
// re-seeds the warm-start propagation chains by re-propagating — so a
// resumed campaign is **byte-identical** to an uninterrupted one for any
// worker count and pipeline depth (tests/test_journal.cpp pins this over
// the full kill-point matrix).
//
// On-disk layout of a journal directory (nothing else is written there):
//
//   seg-NNNNNN.wal    sealed segments (immutable; any corruption is fatal)
//   seg-NNNNNN.open   the active segment (torn tail truncated on recovery)
//
// Every segment starts with a fixed CRC-protected header carrying the
// format version and the campaign identity hash, so a journal can never be
// replayed into a different campaign or read under another format. Records
// are length+CRC32C framed, and the frame CRC is the one integrity check
// on a row; recovery scans the active segment and truncates the torn tail
// at the first bad frame. Segment rotation is atomic: seal (fsync) ->
// rename .open to .wal -> directory fsync. The fault::FaultInjector's
// kill-point sites (fault.crash.*) put a deterministic crash barrier at
// each of those steps; the recovery harness crashes at every one and pins
// equivalence.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/announcement.hpp"
#include "fault/fault.hpp"

namespace spooftrack::journal {

/// Unrecoverable journal corruption: a sealed segment that fails its CRC, a
/// segment of another format version, a recovered row that does not fit
/// the testbed, or a journal written by a different campaign. Distinct from
/// std::runtime_error so the CLI can map it to the documented exit code 5.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// Binds a journal to one campaign: `hash` covers everything that
/// determines deployment results (testbed seed, configuration plan, fault
/// plan probabilities and thresholds) and deliberately excludes execution
/// shape (workers, pipeline depth, kill-points) — resuming with a
/// different parallelism is supported and byte-identical.
struct CampaignIdentity {
  std::uint64_t hash = 0;
  std::uint64_t config_count = 0;
};

/// One committed configuration. `row` is its measured row: one byte per AS
/// in the measure::CatchmentStore encoding, bgp::kNoCatchment8 where the AS
/// was not observed, and empty for an abandoned configuration, which has no
/// measurement. `multi_catchment_fraction` is the measured value the row
/// cannot give; the quality fields mirror the measured part of
/// fault::ConfigQuality so a resume reproduces DeploymentResult::quality
/// without re-measuring.
struct ConfigRecord {
  std::uint64_t config_index = 0;
  std::uint64_t config_hash = 0;
  fault::Grade grade = fault::Grade::kGood;
  std::uint32_t deploy_attempts = 1;
  std::uint32_t feed_entries = 0;
  std::uint32_t feed_faults = 0;
  std::uint32_t traces = 0;
  std::uint32_t trace_faults = 0;
  double multi_catchment_fraction = 0.0;
  std::vector<std::uint8_t> row;

  bool abandoned() const noexcept { return grade == fault::Grade::kFailed; }

  friend bool operator==(const ConfigRecord&, const ConfigRecord&) = default;
};

struct JournalOptions {
  /// Journal directory; empty disables journaling entirely.
  std::string dir;
  /// Recover an existing journal in `dir` and skip committed configs; false
  /// starts fresh (wiping any previous journal state in `dir`).
  bool resume = false;
  /// Records per segment before an atomic rotation seals it.
  std::size_t segment_records = 128;
  /// fsync barriers on append/seal/rotate. Disabling keeps the format and
  /// the crash barriers (tests exercise kill-points at full speed) but
  /// drops durability against power loss.
  bool fsync = true;
};

struct RecoveryStats {
  std::uint64_t segments = 0;      // files scanned (sealed + active)
  std::uint64_t records = 0;       // valid records recovered
  std::uint64_t torn_bytes = 0;    // torn tail truncated from the active
  friend bool operator==(const RecoveryStats&, const RecoveryStats&) = default;
};

/// Append-side of the journal. Construction either starts fresh or
/// recovers (options.resume); appends frame, checksum, and fsync records
/// with kill-point barriers at every durability step. Not thread-safe —
/// the deploy paths append from the globally-serialized commit stage.
class JournalWriter {
 public:
  JournalWriter(const JournalOptions& options, const CampaignIdentity& identity,
                const fault::FaultInjector* injector = nullptr);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Records recovered at construction (empty unless options.resume), in
  /// ascending config index. Mutable so a resume can move the rows out.
  std::vector<ConfigRecord>& recovered() noexcept { return recovered_; }
  const RecoveryStats& recovery() const noexcept { return recovery_; }

  /// Commits one configuration. Crash barriers: kJournalPreWrite,
  /// kJournalMidRecord (append), and on rotation kJournalPreRename,
  /// kJournalPreFsync.
  void append(const ConfigRecord& record);

 private:
  void open_active(std::uint32_t seq);
  void rotate();
  void barrier(fault::Site site);
  void write_bytes(const char* data, std::size_t size);
  void sync_data();

  JournalOptions options_;
  CampaignIdentity identity_;
  const fault::FaultInjector* injector_;
  int fd_ = -1;
  std::uint32_t seq_ = 0;
  std::size_t records_in_segment_ = 0;
  std::vector<ConfigRecord> recovered_;
  RecoveryStats recovery_{};
  std::uint64_t ordinals_[4] = {0, 0, 0, 0};  // per kill-point site
};

/// Read-only recovery scan: validates every sealed segment, truncates
/// nothing, returns the records (torn active tail ignored, counted in
/// stats). Throws JournalError on unrecoverable corruption or identity
/// mismatch. An empty/missing directory yields zero records.
struct ReplayResult {
  std::vector<ConfigRecord> records;
  RecoveryStats stats;
};
ReplayResult replay(const std::string& dir, const CampaignIdentity& expect);

/// Stable hash of one configuration (label + announcement specs); part of
/// every ConfigRecord so replay can cross-check the plan.
std::uint64_t config_hash(const bgp::Configuration& config) noexcept;

}  // namespace spooftrack::journal
