#include "util/flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gttsch {
namespace {

/// A malformed value is a usage error: name the flag and the value, then
/// exit 2 before anything runs on a made-up number.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  std::fprintf(stderr, "--%s: \"%s\" is not %s\n", name.c_str(), value.c_str(),
               expected);
  std::exit(2);
}

/// Whole-string parse: no leading space, no trailing text, in range.
template <typename T>
bool parse_whole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  std::int64_t n = 0;
  if (!parse_whole(*v, &n)) bad_value(name, *v, "an integer");
  return n;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  double x = 0;
  if (!parse_whole(*v, &x) || !std::isfinite(x)) bad_value(name, *v, "a finite number");
  return x;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  for (const char* yes : {"1", "true", "yes", "on"})
    if (*v == yes) return true;
  for (const char* no : {"0", "false", "no", "off"})
    if (*v == no) return false;
  bad_value(name, *v, "one of 1/true/yes/on or 0/false/no/off");
}

std::vector<std::string> Flags::unknown() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_)
    if (!queried_.count(name)) out.push_back(name);
  return out;
}

}  // namespace gttsch
