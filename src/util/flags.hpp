// Minimal command-line flag parser used by the CLI tool and the bench
// binaries: `--key=value` and boolean `--switch` flags, with typed
// accessors, defaults, and an auto-generated usage string.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spooftrack::util {

class FlagSet {
 public:
  /// Declares a flag; `help` feeds the usage text. Declaration order is
  /// preserved in usage().
  FlagSet& define(const std::string& name, const std::string& help,
                  const std::string& default_value = "");
  /// Declares a boolean switch (present = true).
  FlagSet& define_switch(const std::string& name, const std::string& help);

  /// Parses argv; returns false (and fills error()) on unknown flags or
  /// malformed input. Non-flag arguments are collected as positionals.
  bool parse(int argc, const char* const* argv);
  bool parse(const std::vector<std::string>& args);

  std::string get(const std::string& name) const;
  bool get_switch(const std::string& name) const;
  /// The value as a whole decimal number in [lo, hi]; nullopt when it is
  /// malformed or out of range.
  std::optional<std::uint64_t> get_u64(
      const std::string& name, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) const;
  std::optional<double> get_double(const std::string& name) const;

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }
  const std::string& error() const noexcept { return error_; }

  /// One line per flag: "--name=default   help".
  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool is_switch = false;
    bool set = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positionals_;
  std::string error_;
};

}  // namespace spooftrack::util
