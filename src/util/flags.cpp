#include "util/flags.hpp"

#include <charconv>

namespace spooftrack::util {

FlagSet& FlagSet::define(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  auto [it, inserted] = flags_.try_emplace(name);
  it->second.help = help;
  it->second.value = default_value;
  it->second.is_switch = false;
  if (inserted) order_.push_back(name);
  return *this;
}

FlagSet& FlagSet::define_switch(const std::string& name,
                                const std::string& help) {
  auto [it, inserted] = flags_.try_emplace(name);
  it->second.help = help;
  it->second.value = "";
  it->second.is_switch = true;
  if (inserted) order_.push_back(name);
  return *this;
}

bool FlagSet::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

bool FlagSet::parse(const std::vector<std::string>& args) {
  error_.clear();
  positionals_.clear();
  // Fresh `set` state per parse: repeated parses of one FlagSet stay
  // idempotent, while repeats *within* one argv are rejected below.
  for (auto& [name, flag] : flags_) flag.set = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag: --" + name;
      return false;
    }
    Flag& flag = it->second;
    if (flag.set) {
      error_ = "duplicate flag: --" + name;
      return false;
    }
    if (flag.is_switch) {
      if (eq != std::string::npos) {
        error_ = "switch --" + name + " takes no value";
        return false;
      }
      flag.set = true;
      flag.value = "1";
    } else {
      if (eq == std::string::npos) {
        error_ = "flag --" + name + " needs a value (--" + name + "=...)";
        return false;
      }
      flag.set = true;
      flag.value = arg.substr(eq + 1);
    }
  }
  return true;
}

std::string FlagSet::get(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? "" : it->second.value;
}

bool FlagSet::get_switch(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.set;
}

std::optional<std::uint64_t> FlagSet::get_u64(const std::string& name,
                                              std::uint64_t lo,
                                              std::uint64_t hi) const {
  const std::string text = get(name);
  std::uint64_t value = 0;
  const auto [next, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || next != text.data() + text.size() ||
      text.empty() || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> FlagSet::get_double(const std::string& name) const {
  const std::string text = get(name);
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) return std::nullopt;
    return value;
  } catch (...) {
    return std::nullopt;
  }
}

std::string FlagSet::usage() const {
  std::string out;
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    out += "  --" + name;
    if (!flag.is_switch) {
      out += "=" + (flag.value.empty() ? "<value>" : flag.value);
    }
    out += "\n      " + flag.help + "\n";
  }
  return out;
}

}  // namespace spooftrack::util
