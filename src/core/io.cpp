#include "core/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/crc32c.hpp"
#include "util/fsio.hpp"

namespace spooftrack::core {

namespace {

constexpr std::uint64_t kMagic = 0x53504F4F'46415254ULL;  // "SPOOFART"
// v2: every byte after the magic is covered by a CRC32C trailer, so a
// truncated or bit-flipped artifact is rejected deterministically instead
// of deserializing into garbage.
constexpr std::uint32_t kVersion = 2;

// ---- primitive writers/readers (little-endian native; the artifact is a
// local cache format, not a wire format). Both sides thread a running
// CRC32C over the payload; save appends it as a trailer and load verifies
// it after the last field. ------------------------------------------------

struct Writer {
  std::ostream& out;
  std::uint32_t crc = util::crc32c_init();

  void write(const char* data, std::size_t size) {
    crc = util::crc32c_update(crc, data, size);
    out.write(data, static_cast<std::streamsize>(size));
  }
};

struct Reader {
  std::istream& in;
  std::uint32_t crc = util::crc32c_init();

  void read(char* data, std::size_t size) {
    in.read(data, static_cast<std::streamsize>(size));
    if (!in) throw std::runtime_error("artifact truncated");
    crc = util::crc32c_update(crc, data, size);
  }
};

template <typename T>
void put(Writer& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T get(Reader& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}

void put_string(Writer& out, const std::string& text) {
  put<std::uint64_t>(out, text.size());
  out.write(text.data(), text.size());
}

std::string get_string(Reader& in) {
  const auto size = get<std::uint64_t>(in);
  if (size > (std::uint64_t{1} << 20)) {
    throw std::runtime_error("artifact string too large");
  }
  std::string text(size, '\0');
  in.read(text.data(), size);
  return text;
}

template <typename T>
void put_pod_vector(Writer& out, const std::vector<T>& items) {
  put<std::uint64_t>(out, items.size());
  for (const T& item : items) put(out, item);
}

template <typename T>
std::vector<T> get_pod_vector(Reader& in, std::uint64_t cap) {
  const auto size = get<std::uint64_t>(in);
  if (size > cap) throw std::runtime_error("artifact vector too large");
  std::vector<T> items(size);
  for (T& item : items) item = get<T>(in);
  return items;
}

constexpr std::uint64_t kSaneCap = 1u << 26;  // 64M elements

void put_spec(Writer& out, const bgp::AnnouncementSpec& spec) {
  put(out, spec.link);
  put(out, spec.prepend);
  put_pod_vector(out, spec.poisoned);
  put_pod_vector(out, spec.no_export_to);
}

bgp::AnnouncementSpec get_spec(Reader& in) {
  bgp::AnnouncementSpec spec;
  spec.link = get<bgp::LinkId>(in);
  spec.prepend = get<std::uint32_t>(in);
  spec.poisoned = get_pod_vector<topology::Asn>(in, kSaneCap);
  spec.no_export_to = get_pod_vector<topology::Asn>(in, kSaneCap);
  return spec;
}

}  // namespace

std::uint64_t DeploymentArtifact::annotation(const std::string& key,
                                             std::uint64_t fallback) const {
  for (const auto& [name, value] : annotations) {
    if (name == key) return value;
  }
  return fallback;
}

void DeploymentArtifact::annotate(const std::string& key,
                                  std::uint64_t value) {
  for (auto& [name, stored] : annotations) {
    if (name == key) {
      stored = value;
      return;
    }
  }
  annotations.emplace_back(key, value);
}

DeploymentArtifact make_artifact(const DeploymentResult& result,
                                 std::uint64_t seed, std::size_t as_count,
                                 std::size_t link_count) {
  DeploymentArtifact artifact;
  artifact.seed = seed;
  artifact.as_count = as_count;
  artifact.link_count = link_count;
  artifact.configs = result.configs;
  artifact.sources = result.sources;
  artifact.matrix = result.matrix;
  artifact.compliance = result.compliance;
  artifact.mean_multi_catchment = result.mean_multi_catchment;
  artifact.mean_coverage = result.mean_coverage;
  artifact.source_distance.reserve(result.sources.size());
  for (topology::AsId source : result.sources) {
    artifact.source_distance.push_back(result.min_route_distance[source]);
  }
  return artifact;
}

void save_artifact(const DeploymentArtifact& artifact, std::ostream& stream) {
  Writer out{stream};
  put(out, kMagic);
  put(out, kVersion);
  put(out, artifact.seed);
  put<std::uint64_t>(out, artifact.as_count);
  put<std::uint64_t>(out, artifact.link_count);
  put(out, artifact.mean_multi_catchment);
  put(out, artifact.mean_coverage);

  put<std::uint64_t>(out, artifact.annotations.size());
  for (const auto& [key, value] : artifact.annotations) {
    put_string(out, key);
    put(out, value);
  }

  put<std::uint64_t>(out, artifact.configs.size());
  for (const auto& config : artifact.configs) {
    put_string(out, config.label);
    put<std::uint64_t>(out, config.announcements.size());
    for (const auto& spec : config.announcements) put_spec(out, spec);
  }

  put_pod_vector(out, artifact.sources);
  put_pod_vector(out, artifact.source_distance);

  put<std::uint64_t>(out, artifact.compliance.size());
  for (const auto& stats : artifact.compliance) {
    put<std::uint64_t>(out, stats.audited);
    put<std::uint64_t>(out, stats.best_relationship);
    put<std::uint64_t>(out, stats.both_criteria);
  }

  // Matrix cells as bytes (0xFF = no catchment) — the store's exact
  // in-memory layout, so the buffer writes in one shot.
  put<std::uint64_t>(out, artifact.matrix.size());
  put<std::uint64_t>(out, artifact.matrix.sources());
  out.write(reinterpret_cast<const char*>(artifact.matrix.data()),
            artifact.matrix.size_bytes());

  // Trailer: CRC32C over everything above, written raw (not self-covering).
  const std::uint32_t crc = util::crc32c_final(out.crc);
  stream.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!stream) throw std::runtime_error("artifact write failed");
}

DeploymentArtifact load_artifact(std::istream& stream) {
  Reader in{stream};
  if (get<std::uint64_t>(in) != kMagic) {
    throw std::runtime_error("not a spooftrack artifact");
  }
  if (get<std::uint32_t>(in) != kVersion) {
    throw std::runtime_error("unsupported artifact version");
  }

  DeploymentArtifact artifact;
  artifact.seed = get<std::uint64_t>(in);
  artifact.as_count = get<std::uint64_t>(in);
  artifact.link_count = get<std::uint64_t>(in);
  artifact.mean_multi_catchment = get<double>(in);
  artifact.mean_coverage = get<double>(in);

  const auto annotation_count = get<std::uint64_t>(in);
  if (annotation_count > 4096) {
    throw std::runtime_error("artifact has too many annotations");
  }
  for (std::uint64_t i = 0; i < annotation_count; ++i) {
    std::string key = get_string(in);
    const auto value = get<std::uint64_t>(in);
    artifact.annotations.emplace_back(std::move(key), value);
  }

  const auto config_count = get<std::uint64_t>(in);
  if (config_count > kSaneCap) {
    throw std::runtime_error("artifact has too many configurations");
  }
  artifact.configs.resize(config_count);
  for (auto& config : artifact.configs) {
    config.label = get_string(in);
    const auto spec_count = get<std::uint64_t>(in);
    if (spec_count > 4096) {
      throw std::runtime_error("configuration has too many announcements");
    }
    config.announcements.reserve(spec_count);
    for (std::uint64_t i = 0; i < spec_count; ++i) {
      config.announcements.push_back(get_spec(in));
    }
  }

  artifact.sources = get_pod_vector<topology::AsId>(in, kSaneCap);
  artifact.source_distance = get_pod_vector<std::uint32_t>(in, kSaneCap);

  const auto compliance_count = get<std::uint64_t>(in);
  if (compliance_count > kSaneCap) {
    throw std::runtime_error("artifact has too many compliance entries");
  }
  artifact.compliance.resize(compliance_count);
  for (auto& stats : artifact.compliance) {
    stats.audited = get<std::uint64_t>(in);
    stats.best_relationship = get<std::uint64_t>(in);
    stats.both_criteria = get<std::uint64_t>(in);
  }

  const auto rows = get<std::uint64_t>(in);
  const auto cols = get<std::uint64_t>(in);
  if (rows > kSaneCap || cols > kSaneCap || rows * cols > kSaneCap * 8) {
    throw std::runtime_error("artifact matrix too large");
  }
  artifact.matrix.assign(rows, cols);
  in.read(reinterpret_cast<char*>(artifact.matrix.data()),
          artifact.matrix.size_bytes());
  for (std::size_t c = 0; c < artifact.matrix.size(); ++c) {
    for (std::uint8_t cell : artifact.matrix.row(c)) {
      if (cell != bgp::kNoCatchment8 && cell >= bgp::kMaxCatchmentLinks) {
        throw std::runtime_error("artifact matrix cell out of range");
      }
    }
  }

  const std::uint32_t expect = util::crc32c_final(in.crc);
  std::uint32_t crc = 0;
  stream.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!stream) throw std::runtime_error("artifact truncated");
  if (crc != expect) {
    throw std::runtime_error("artifact checksum mismatch");
  }

  // The parts index each other (matrix rows by configuration, columns by
  // source), so a well-formed artifact whose shapes disagree is rejected
  // here rather than read out of bounds by its consumers.
  const auto shape_error = [](const std::string& what, std::size_t got,
                              std::size_t want) {
    return std::runtime_error("artifact shape mismatch: " + what + " is " +
                              std::to_string(got) + ", expected " +
                              std::to_string(want));
  };
  const std::size_t configs = artifact.configs.size();
  const std::size_t sources = artifact.sources.size();
  if (artifact.matrix.configs() != configs) {
    throw shape_error("matrix row count", artifact.matrix.configs(), configs);
  }
  if (artifact.matrix.sources() != sources) {
    throw shape_error("matrix column count", artifact.matrix.sources(),
                      sources);
  }
  if (artifact.source_distance.size() != sources) {
    throw shape_error("source distance count",
                      artifact.source_distance.size(), sources);
  }
  if (!artifact.compliance.empty() && artifact.compliance.size() != configs) {
    throw shape_error("compliance entry count", artifact.compliance.size(),
                      configs);
  }
  // Consumers index per-link tables and bit masks by announcement link.
  if (artifact.link_count > bgp::kMaxCatchmentLinks) {
    throw std::runtime_error("inconsistent artifact: link count " +
                             std::to_string(artifact.link_count) +
                             " exceeds " +
                             std::to_string(bgp::kMaxCatchmentLinks));
  }
  for (const auto& config : artifact.configs) {
    for (const auto& spec : config.announcements) {
      if (spec.link >= artifact.link_count) {
        throw std::runtime_error("inconsistent artifact: announcement link " +
                                 std::to_string(spec.link) +
                                 " is not below the link count " +
                                 std::to_string(artifact.link_count));
      }
    }
  }
  return artifact;
}

void save_artifact_file(const DeploymentArtifact& artifact,
                        const std::string& path) {
  // Atomic: serialize, temp-write, fsync, rename, directory fsync — a crash
  // mid-save can never leave a torn artifact under the final name.
  std::ostringstream out(std::ios::binary);
  save_artifact(artifact, out);
  util::atomic_write_file(path, out.view());
}

DeploymentArtifact load_artifact_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open artifact: " + path);
  return load_artifact(in);
}

}  // namespace spooftrack::core
