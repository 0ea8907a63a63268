#include "sim/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace gttsch {
namespace {
// Atomics: the campaign runner drives many simulators from worker threads,
// and all of them consult the shared levels. g_max is the fast gate
// (max of the base level and every override); the per-component map
// lives behind g_mutex on the slow emit path.
std::atomic<LogLevel> g_base{LogLevel::kNone};
std::atomic<LogLevel> g_max{LogLevel::kNone};
std::atomic<bool> g_has_overrides{false};
std::mutex g_mutex;
std::map<std::string, LogLevel>& overrides() {
  static std::map<std::string, LogLevel> map;
  return map;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kDebug: return "D";
    default: return "?";
  }
}

bool parse_level(const std::string& word, LogLevel* out) {
  if (word == "none") *out = LogLevel::kNone;
  else if (word == "error") *out = LogLevel::kError;
  else if (word == "warn") *out = LogLevel::kWarn;
  else if (word == "info") *out = LogLevel::kInfo;
  else if (word == "debug") *out = LogLevel::kDebug;
  else return false;
  return true;
}

/// Recomputes g_max from the base level and overrides. Call under g_mutex.
void refresh_max() {
  LogLevel max = g_base.load(std::memory_order_relaxed);
  for (const auto& [component, level] : overrides()) {
    if (static_cast<int>(level) > static_cast<int>(max)) max = level;
  }
  g_max.store(max, std::memory_order_relaxed);
  g_has_overrides.store(!overrides().empty(), std::memory_order_relaxed);
}

// $GTTSCH_LOG is applied before main so every binary honors it without
// per-tool wiring.
const bool g_env_applied = [] {
  Log::init_from_env();
  return true;
}();

}  // namespace

LogLevel Log::level() { return g_max.load(std::memory_order_relaxed); }

LogLevel Log::component_level(const std::string& component) {
  std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = overrides().find(component);
  return it != overrides().end() ? it->second
                                 : g_base.load(std::memory_order_relaxed);
}

bool Log::configure(const std::string& spec, std::string* error) {
  LogLevel base = g_base.load(std::memory_order_relaxed);
  bool base_set = false;
  std::map<std::string, LogLevel> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, (comma == std::string::npos ? spec.size() : comma) - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) {
      if (error != nullptr) *error = "empty item in log spec \"" + spec + "\"";
      return false;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (!parse_level(item, &base)) {
        if (error != nullptr) *error = "unknown log level \"" + item + "\"";
        return false;
      }
      if (base_set) {
        if (error != nullptr)
          *error = "global level given twice in \"" + spec + "\"";
        return false;
      }
      base_set = true;
      continue;
    }
    const std::string component = item.substr(0, eq);
    const std::string level_word = item.substr(eq + 1);
    LogLevel level;
    if (component.empty() || !parse_level(level_word, &level)) {
      if (error != nullptr) *error = "malformed log item \"" + item + "\"";
      return false;
    }
    parsed[component] = level;  // last occurrence wins
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  g_base.store(base, std::memory_order_relaxed);
  overrides() = std::move(parsed);
  refresh_max();
  return true;
}

void Log::init_from_env() {
  const char* spec = std::getenv("GTTSCH_LOG");
  if (spec == nullptr || *spec == '\0') return;
  std::string error;
  if (!configure(spec, &error)) {
    std::fprintf(stderr, "GTTSCH_LOG: %s\n", error.c_str());
    std::exit(2);
  }
}

void Log::write(LogLevel level, const char* component, const char* fmt, ...) {
  if (static_cast<int>(g_max.load(std::memory_order_relaxed)) <
      static_cast<int>(level)) {
    return;
  }
  if (g_has_overrides.load(std::memory_order_relaxed) &&
      static_cast<int>(component_level(component)) < static_cast<int>(level)) {
    return;
  }
  char body[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(body, sizeof body, fmt, args);
  va_end(args);
  std::fprintf(stderr, "%s %-8s %s\n", level_tag(level), component, body);
}

}  // namespace gttsch
