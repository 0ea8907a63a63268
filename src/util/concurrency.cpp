#include "util/concurrency.hpp"

#include <cstdlib>
#include <thread>

namespace gttsch {

int resolve_worker_count(int requested, unsigned hardware_threads,
                         const char* env_value) {
  if (requested > 0) return requested;
  if (env_value != nullptr) {
    const int parsed = std::atoi(env_value);
    if (parsed > 0) return parsed;
  }
  return hardware_threads > 0 ? static_cast<int>(hardware_threads) : 1;
}

int default_worker_count(int requested, const char* env_name) {
  return resolve_worker_count(requested, std::thread::hardware_concurrency(),
                              std::getenv(env_name));
}

}  // namespace gttsch
