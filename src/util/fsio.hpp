// Crash-consistent file primitives shared by the artifact writer and the
// campaign journal (docs/checkpointing.md).
//
// The durability discipline is the classic one: write the full payload to a
// sibling temp file, fsync the file, rename it over the destination, fsync
// the containing directory. A reader therefore sees either the old file or
// the new file in its entirety — never a torn mixture — and a crash between
// any two steps leaves at worst a stale `.tmp` sibling to be swept.
#pragma once

#include <string>
#include <string_view>

namespace spooftrack::util {

/// Atomically replaces `path` with `bytes` (temp write -> fsync -> rename ->
/// directory fsync). Throws std::runtime_error on any I/O failure; on
/// failure the destination is untouched.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// Reads an entire file into a string. Throws std::runtime_error when the
/// file cannot be opened or read.
std::string read_file(const std::string& path);

/// Creates `dir` (one level) if it does not exist. Throws on failure.
void ensure_directory(const std::string& dir);

/// fsyncs a directory so a rename/creation within it is durable. Throws on
/// failure; no-op when `sync` is false.
void fsync_directory(const std::string& dir, bool sync = true);

}  // namespace spooftrack::util
