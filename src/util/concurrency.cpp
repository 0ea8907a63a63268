#include "util/concurrency.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace gttsch {

int resolve_worker_count(int requested, unsigned hardware_threads,
                         const char* env_value) {
  if (requested > 0) return requested;
  if (env_value != nullptr) {
    // Plain digits only: from_chars would take a leading '-' and stop at
    // trailing text ("4x"), and an out-of-range value fails it.
    const std::size_t len = std::strlen(env_value);
    int parsed = 0;
    if (len > 0 && std::strspn(env_value, "0123456789") == len &&
        std::from_chars(env_value, env_value + len, parsed).ec == std::errc() &&
        parsed > 0 && parsed <= kMaxWorkerCount) {
      return parsed;
    }
  }
  return hardware_threads > 0 ? static_cast<int>(hardware_threads) : 1;
}

int default_worker_count(int requested, const char* env_name) {
  return resolve_worker_count(requested, std::thread::hardware_concurrency(),
                              std::getenv(env_name));
}

}  // namespace gttsch
