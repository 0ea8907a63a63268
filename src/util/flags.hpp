// Tiny command-line flag parser for the examples, benches and gt_campaign.
// Accepts `--name=value` and `--name value`; unknown flags are reported.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gttsch {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  // The typed getters parse the whole value (a bool: 1/true/yes/on or
  // 0/false/no/off; a double: finite). Anything else prints the flag and
  // its value and exits 2.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never queried; useful to warn about typos.
  std::vector<std::string> unknown() const;

 private:
  /// The flag's value (marking it queried), or null when absent.
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace gttsch
