// Levelled, per-component logging to stderr, one "E|W|I|D component msg"
// line per record (no timestamp: many simulators share the process). Off
// by default so large parameter sweeps stay quiet; tests and examples can
// raise the level.
//
// Per-component overrides let 200-node debugging keep the medium layer
// quiet: the GTTSCH_LOG environment variable (or Log::configure) accepts
// "debug" (global level), "mac=debug,rpl=info" (component overrides) or a
// mix ("warn,mac=debug"). Malformed specs abort the process at startup.
//
// Besides the printf path to stderr, a machine-readable JSON sink can be
// installed: every emitted line is also rendered as one JSON object
// {"level":..., "component":..., "msg":...} and handed to it.
#pragma once

#include <cstdarg>
#include <functional>
#include <string>


namespace gttsch {

enum class LogLevel { kNone = 0, kError, kWarn, kInfo, kDebug };

class Log {
 public:
  static void set_level(LogLevel level);

  /// The most verbose level any component can emit at — the cheap gate
  /// the GTTSCH_LOG macro uses before the per-component check in write().
  static LogLevel level();

  /// Level override for one component ("" clears all overrides).
  static void set_component_level(const std::string& component, LogLevel level);

  /// Effective level for a component (its override, else the global base).
  static LogLevel component_level(const std::string& component);

  /// Parse and apply a level spec: "LEVEL" and/or "component=LEVEL" items,
  /// comma-separated; levels are none/error/warn/info/debug. Replaces any
  /// previous overrides. Returns false (without applying anything) on a
  /// malformed spec, with a diagnostic in `error`.
  static bool configure(const std::string& spec, std::string* error);

  /// Apply $GTTSCH_LOG; a malformed value prints the parse error and
  /// exits(2) — misconfigured debugging should fail loudly, not silently
  /// log nothing. Runs automatically at program startup.
  static void init_from_env();

  /// Machine-readable sink: receives each emitted record as one JSON
  /// object (no trailing newline) alongside the stderr printf path.
  /// Pass nullptr to uninstall. The sink runs under the log mutex.
  static void set_json_sink(std::function<void(const std::string&)> sink);

  static void write(LogLevel level, const char* component, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
};

#define GTTSCH_LOG(lvl, component, ...)                                   \
  do {                                                                    \
    if (static_cast<int>(::gttsch::Log::level()) >= static_cast<int>(lvl)) \
      ::gttsch::Log::write(lvl, component, __VA_ARGS__);                  \
  } while (false)

#define GTTSCH_LOG_INFO(component, ...) GTTSCH_LOG(::gttsch::LogLevel::kInfo, component, __VA_ARGS__)
#define GTTSCH_LOG_WARN(component, ...) GTTSCH_LOG(::gttsch::LogLevel::kWarn, component, __VA_ARGS__)
#define GTTSCH_LOG_DEBUG(component, ...) GTTSCH_LOG(::gttsch::LogLevel::kDebug, component, __VA_ARGS__)

}  // namespace gttsch
