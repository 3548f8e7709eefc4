#include "util/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace spooftrack::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail("cannot write", path);
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open for writing", tmp);
  try {
    write_all(fd, bytes.data(), bytes.size(), tmp);
    if (::fsync(fd) != 0) fail("cannot fsync", tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("cannot close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("cannot rename over", path);
  }
  fsync_directory(parent_dir(path));
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open", path);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("cannot read", path);
    }
    if (got == 0) break;
    bytes.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return bytes;
}

bool path_exists(const std::string& path) noexcept {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_directory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    fail("cannot create directory", dir);
  }
}

void fsync_directory(const std::string& dir, bool sync) {
  if (!sync) return;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("cannot fsync directory", dir);
}

}  // namespace spooftrack::util
