#include "journal/journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "obs/obs.hpp"
#include "util/crc32c.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace spooftrack::journal {

namespace {

constexpr std::uint64_t kSegmentMagic = 0x4C4E4A464F4F5053ULL;  // "SPOOFJNL"
// Format 2: each record carries its configuration's measured row. Replay
// rejects every other version.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 4;  // 36 bytes
constexpr std::uint8_t kConfigRecordType = 2;

// ---- little-endian-native byte packing (local cache format, like the
// artifact serializer) ------------------------------------------------------

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

struct Cursor {
  const char* p;
  std::size_t n;

  template <typename T>
  bool take(T& value) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n < sizeof(T)) return false;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    n -= sizeof(T);
    return true;
  }
};

std::string segment_header(const CampaignIdentity& identity,
                           std::uint32_t seq) {
  std::string bytes;
  bytes.reserve(kHeaderSize);
  put(bytes, kSegmentMagic);
  put(bytes, kVersion);
  put(bytes, seq);
  put(bytes, identity.hash);
  put(bytes, identity.config_count);
  put(bytes, util::crc32c(bytes.data(), bytes.size()));
  return bytes;
}

/// nullopt = torn/unrecognized header (recoverable for the active segment);
/// throws JournalError when the header is intact but incompatible.
std::optional<std::uint32_t> parse_header(const std::string& bytes,
                                          const CampaignIdentity& identity,
                                          const std::string& path) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  Cursor cur{bytes.data(), kHeaderSize};
  std::uint64_t magic = 0, hash = 0, configs = 0;
  std::uint32_t version = 0, seq = 0, crc = 0;
  cur.take(magic);
  cur.take(version);
  cur.take(seq);
  cur.take(hash);
  cur.take(configs);
  cur.take(crc);
  if (magic != kSegmentMagic) return std::nullopt;
  if (crc != util::crc32c(bytes.data(), kHeaderSize - 4)) return std::nullopt;
  if (version != kVersion) {
    throw JournalError("unsupported journal version in " + path);
  }
  if (hash != identity.hash || configs != identity.config_count) {
    throw JournalError("journal " + path +
                       " belongs to a different campaign (identity mismatch)");
  }
  return seq;
}

bool parse_record(Cursor& cur, ConfigRecord& record) {
  std::uint8_t type = 0, grade = 0;
  if (!cur.take(type) || type != kConfigRecordType) return false;
  if (!cur.take(record.config_index)) return false;
  if (!cur.take(record.config_hash)) return false;
  if (!cur.take(grade) || grade > 2) return false;
  record.grade = static_cast<fault::Grade>(grade);
  if (!cur.take(record.deploy_attempts)) return false;
  if (!cur.take(record.feed_entries)) return false;
  if (!cur.take(record.feed_faults)) return false;
  if (!cur.take(record.traces)) return false;
  if (!cur.take(record.trace_faults)) return false;
  if (!cur.take(record.multi_catchment_fraction)) return false;
  // The row is the rest of the payload.
  record.row.assign(cur.p, cur.p + cur.n);
  return true;
}

/// Frame = u32 payload length, u32 CRC32C of the payload, payload.
std::string frame_record(const ConfigRecord& record) {
  std::string frame(8, '\0');  // length and CRC, filled in last
  frame.reserve(64 + record.row.size());
  put(frame, kConfigRecordType);
  put(frame, record.config_index);
  put(frame, record.config_hash);
  put(frame, static_cast<std::uint8_t>(record.grade));
  put(frame, record.deploy_attempts);
  put(frame, record.feed_entries);
  put(frame, record.feed_faults);
  put(frame, record.traces);
  put(frame, record.trace_faults);
  put(frame, record.multi_catchment_fraction);
  frame.append(reinterpret_cast<const char*>(record.row.data()),
               record.row.size());
  const auto len = static_cast<std::uint32_t>(frame.size() - 8);
  const std::uint32_t crc = util::crc32c(frame.data() + 8, len);
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &crc, 4);
  return frame;
}

/// Parses framed records from `bytes` starting after the header. Returns
/// the byte offset one past the last valid record; every valid record is
/// appended to `records` in order.
std::size_t parse_frames(const std::string& bytes,
                         std::vector<ConfigRecord>& records) {
  std::size_t offset = kHeaderSize;
  while (offset + 8 <= bytes.size()) {
    std::uint32_t len = 0, crc = 0;
    std::memcpy(&len, bytes.data() + offset, 4);
    std::memcpy(&crc, bytes.data() + offset + 4, 4);
    if (len == 0 || len > bytes.size() - offset - 8) break;
    const char* payload = bytes.data() + offset + 8;
    if (util::crc32c(payload, len) != crc) break;
    Cursor cur{payload, len};
    ConfigRecord record;
    if (!parse_record(cur, record)) break;
    records.push_back(std::move(record));
    offset += 8 + len;
  }
  return offset;
}

std::string segment_name(std::uint32_t seq, bool sealed) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06u.%s", seq,
                sealed ? "wal" : "open");
  return name;
}

struct SegmentFile {
  std::uint32_t seq = 0;
  bool sealed = false;
};

std::vector<SegmentFile> list_segments(const std::string& dir) {
  std::vector<SegmentFile> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return segments;  // missing directory = empty journal
  while (const dirent* entry = ::readdir(d)) {
    unsigned seq = 0;
    char suffix[8] = {};
    if (std::sscanf(entry->d_name, "seg-%06u.%4s", &seq, suffix) != 2) {
      continue;
    }
    if (std::strcmp(suffix, "wal") == 0) {
      segments.push_back({seq, true});
    } else if (std::strcmp(suffix, "open") == 0) {
      segments.push_back({seq, false});
    }
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq != b.seq ? a.seq < b.seq : a.sealed > b.sealed;
            });
  return segments;
}

struct Scan {
  std::vector<ConfigRecord> records;
  RecoveryStats stats;
  bool has_active = false;
  std::uint32_t active_seq = 0;
  std::uint64_t active_valid_len = 0;  // 0 = header torn, rewrite whole file
  std::size_t active_records = 0;
  std::uint32_t next_seq = 0;  // when no usable active exists
};

Scan scan_journal(const std::string& dir, const CampaignIdentity& identity) {
  Scan scan;
  const auto segments = list_segments(dir);
  if (segments.empty()) return scan;

  std::uint32_t expect_seq = 0;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const SegmentFile& seg = segments[k];
    const std::string path = dir + "/" + segment_name(seg.seq, seg.sealed);
    if (seg.seq != expect_seq) {
      throw JournalError("journal segment sequence broken at " + path);
    }
    if (!seg.sealed && k + 1 != segments.size()) {
      throw JournalError("journal has an active segment before " + path);
    }
    const std::string bytes = util::read_file(path);
    ++scan.stats.segments;

    if (seg.sealed) {
      // Sealed segments are immutable: the header and every byte of every
      // frame must validate, and no tail may remain.
      if (parse_header(bytes, identity, path) != seg.seq) {
        throw JournalError("corrupt sealed journal segment header: " + path);
      }
      if (parse_frames(bytes, scan.records) != bytes.size()) {
        throw JournalError("corrupt record in sealed journal segment: " +
                           path);
      }
      expect_seq = seg.seq + 1;
      scan.next_seq = expect_seq;
      continue;
    }

    // Active segment: a torn header or a torn tail is the expected crash
    // residue — recover the valid prefix and report the rest.
    scan.has_active = true;
    scan.active_seq = seg.seq;
    const auto header_seq = parse_header(bytes, identity, path);
    if (!header_seq || *header_seq != seg.seq) {
      scan.active_valid_len = 0;
      scan.stats.torn_bytes += bytes.size();
      continue;
    }
    const std::size_t before = scan.records.size();
    scan.active_valid_len = parse_frames(bytes, scan.records);
    scan.stats.torn_bytes += bytes.size() - scan.active_valid_len;
    scan.active_records = scan.records.size() - before;
  }

  // Deduplicate (identical re-commits are harmless; diverging ones are
  // corruption) and order by configuration index.
  std::sort(scan.records.begin(), scan.records.end(),
            [](const ConfigRecord& a, const ConfigRecord& b) {
              return a.config_index < b.config_index;
            });
  std::vector<ConfigRecord> unique;
  unique.reserve(scan.records.size());
  for (ConfigRecord& record : scan.records) {
    if (!unique.empty() &&
        unique.back().config_index == record.config_index) {
      if (!(unique.back() == record)) {
        throw JournalError("journal has conflicting records for config " +
                           std::to_string(record.config_index));
      }
      continue;
    }
    if (record.config_index >= identity.config_count) {
      throw JournalError("journal record for out-of-plan config " +
                         std::to_string(record.config_index));
    }
    unique.push_back(std::move(record));
  }
  scan.records = std::move(unique);
  scan.stats.records = scan.records.size();
  return scan;
}

}  // namespace

// ---------------------------------------------------------------------------
// JournalWriter
// ---------------------------------------------------------------------------

JournalWriter::JournalWriter(const JournalOptions& options,
                             const CampaignIdentity& identity,
                             const fault::FaultInjector* injector)
    : options_(options), identity_(identity), injector_(injector) {
  if (options_.dir.empty()) {
    throw std::invalid_argument("journal directory must not be empty");
  }
  if (options_.segment_records == 0) options_.segment_records = 1;
  util::ensure_directory(options_.dir);

  if (!options_.resume) {
    // Fresh journal: sweep any previous campaign's segments so a stale
    // record can never alias into this run.
    if (DIR* d = ::opendir(options_.dir.c_str())) {
      std::vector<std::string> stale;
      while (const dirent* entry = ::readdir(d)) {
        if (std::strncmp(entry->d_name, "seg-", 4) == 0) {
          stale.emplace_back(entry->d_name);
        }
      }
      ::closedir(d);
      for (const std::string& name : stale) {
        ::unlink((options_.dir + "/" + name).c_str());
      }
    }
    open_active(0);
    return;
  }

  Scan scan = scan_journal(options_.dir, identity_);
  recovered_ = std::move(scan.records);
  recovery_ = scan.stats;
  OBS_COUNT("journal.recovered_records", recovery_.records);
  OBS_COUNT("journal.torn_bytes", recovery_.torn_bytes);

  if (scan.has_active) {
    const std::string path =
        options_.dir + "/" + segment_name(scan.active_seq, false);
    if (::truncate(path.c_str(), static_cast<off_t>(scan.active_valid_len)) !=
        0) {
      throw JournalError("cannot truncate torn journal tail: " + path);
    }
    seq_ = scan.active_seq;
    if (scan.active_valid_len == 0) {
      // Header itself was torn — rewrite the whole file.
      open_active(seq_);
    } else {
      fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
      if (fd_ < 0) throw JournalError("cannot reopen journal: " + path);
      records_in_segment_ = scan.active_records;
      sync_data();
      util::fsync_directory(options_.dir, options_.fsync);
      if (records_in_segment_ >= options_.segment_records) rotate();
    }
  } else {
    open_active(scan.next_seq);
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::barrier(fault::Site site) {
  if (injector_ == nullptr) return;
  const std::size_t index =
      static_cast<std::size_t>(site) -
      static_cast<std::size_t>(fault::Site::kJournalPreWrite);
  injector_->check_crash(site, ++ordinals_[index]);
}

void JournalWriter::write_bytes(const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::write(fd_, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw JournalError(std::string("journal write failed: ") +
                         std::strerror(errno));
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
}

void JournalWriter::sync_data() {
  if (!options_.fsync) return;
  if (::fdatasync(fd_) != 0) {
    throw JournalError(std::string("journal fsync failed: ") +
                       std::strerror(errno));
  }
  OBS_COUNT("journal.fsyncs", 1);
}

void JournalWriter::open_active(std::uint32_t seq) {
  const std::string path = options_.dir + "/" + segment_name(seq, false);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw JournalError("cannot create journal segment: " + path);
  const std::string header = segment_header(identity_, seq);
  write_bytes(header.data(), header.size());
  sync_data();
  util::fsync_directory(options_.dir, options_.fsync);
  seq_ = seq;
  records_in_segment_ = 0;
}

void JournalWriter::rotate() {
  // Seal: make the segment's content durable, then atomically promote it.
  sync_data();
  barrier(fault::Site::kJournalPreRename);
  ::close(fd_);
  fd_ = -1;
  const std::string open_path =
      options_.dir + "/" + segment_name(seq_, false);
  const std::string sealed_path =
      options_.dir + "/" + segment_name(seq_, true);
  if (::rename(open_path.c_str(), sealed_path.c_str()) != 0) {
    throw JournalError("cannot seal journal segment: " + open_path);
  }
  OBS_COUNT("journal.rotations", 1);
  barrier(fault::Site::kJournalPreFsync);
  util::fsync_directory(options_.dir, options_.fsync);
  open_active(seq_ + 1);
}

void JournalWriter::append(const ConfigRecord& record) {
  OBS_TIMER("journal.append_ns");
  const std::string frame = frame_record(record);
  barrier(fault::Site::kJournalPreWrite);
  // Two-part write with a barrier in between: a kJournalMidRecord crash
  // leaves a torn frame on disk, which recovery must truncate.
  const std::size_t mid = frame.size() / 2;
  write_bytes(frame.data(), mid);
  barrier(fault::Site::kJournalMidRecord);
  write_bytes(frame.data() + mid, frame.size() - mid);
  sync_data();
  OBS_COUNT("journal.records", 1);
  OBS_COUNT("journal.bytes", frame.size());
  if (++records_in_segment_ >= options_.segment_records) rotate();
}

ReplayResult replay(const std::string& dir, const CampaignIdentity& expect) {
  Scan scan = scan_journal(dir, expect);
  return {std::move(scan.records), scan.stats};
}

std::uint64_t config_hash(const bgp::Configuration& config) noexcept {
  std::uint64_t h = util::mix64(0x10AD'F00D ^ config.label.size());
  h = util::hash_combine(
      h, util::crc32c(config.label.data(), config.label.size()));
  h = util::hash_combine(h, config.announcements.size());
  for (const bgp::AnnouncementSpec& spec : config.announcements) {
    h = util::hash_combine(h, spec.link);
    h = util::hash_combine(h, spec.prepend);
    h = util::hash_combine(h, spec.poisoned.size());
    for (const topology::Asn asn : spec.poisoned) {
      h = util::hash_combine(h, asn);
    }
    h = util::hash_combine(h, spec.no_export_to.size());
    for (const topology::Asn asn : spec.no_export_to) {
      h = util::hash_combine(h, asn);
    }
  }
  return h;
}

}  // namespace spooftrack::journal
