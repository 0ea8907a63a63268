#include "campaign/shard.hpp"

#include "campaign/spec.hpp"

namespace gttsch::campaign {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool parse_size(const std::string& text, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_bounded_u64(text, 1'000'000, &v)) return false;  // 1M hosts is enough
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

bool parse_shard(const std::string& text, ShardSpec* out, std::string* error) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    return fail(error, "shard '" + text + "' is not of the form i/N");
  }
  ShardSpec spec;
  if (!parse_size(text.substr(0, slash), &spec.index) ||
      !parse_size(text.substr(slash + 1), &spec.count)) {
    return fail(error, "shard '" + text + "' is not of the form i/N");
  }
  if (spec.count == 0) {
    return fail(error, "shard '" + text + "': shard count must be at least 1");
  }
  if (spec.index >= spec.count) {
    return fail(error, "shard '" + text + "': index " + std::to_string(spec.index) +
                           " out of range for " + std::to_string(spec.count) +
                           " shards");
  }
  *out = spec;
  return true;
}

}  // namespace gttsch::campaign
