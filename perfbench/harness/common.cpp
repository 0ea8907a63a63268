#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <queue>

#include "campaign/spec.hpp"

namespace perfbench {

using namespace gttsch;

void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

const std::string& BenchConfig::setting(const std::string& key) const {
  const auto it = settings.find(key);
  if (it == settings.end()) die("config lacks setting '" + key + "'");
  return it->second;
}

double BenchConfig::number(const std::string& key) const {
  const std::string& text = setting(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    die("setting '" + key + "' is not a number: '" + text + "'");
  }
  return value;
}

BenchConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read config " + path);
  const auto& fields = campaign::known_fields();
  BenchConfig config;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) die("config line without '=': " + line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "seed") {
      config.scenario.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::find(fields.begin(), fields.end(), key) != fields.end()) {
      std::string error;
      if (!campaign::apply_field(config.scenario, key, value, &error)) die(error);
    } else {
      config.settings[key] = value;
    }
  }
  return config;
}

namespace {

std::string number_json(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void JsonObject::add(const std::string& key, double value) {
  fields_.emplace_back(key, number_json(value));
}

void JsonObject::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quoted(value));
}

void JsonObject::add(const Values& values) {
  for (const auto& [key, value] : values) add(key, value);
}

void JsonObject::add_raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string values_json(const Values& values) {
  JsonObject object;
  object.add(values);
  return object.render();
}

std::string values_text(const Values& values) {
  std::string out;
  for (const auto& [key, value] : values) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "=%.17g\n", value);
    out += key + buf;
  }
  return out;
}

std::string result_text(const ExperimentResult& r) {
  const RunMetrics& m = r.metrics;
  const Values values = {
      {"pdr_percent", m.pdr_percent},
      {"avg_delay_ms", m.avg_delay_ms},
      {"p95_delay_ms", m.p95_delay_ms},
      {"loss_per_minute", m.loss_per_minute},
      {"duty_cycle_percent", m.duty_cycle_percent},
      {"queue_loss_per_node", m.queue_loss_per_node},
      {"throughput_per_minute", m.throughput_per_minute},
      {"generated", static_cast<double>(m.generated)},
      {"delivered", static_cast<double>(m.delivered)},
      {"queue_drops", static_cast<double>(m.queue_drops)},
      {"mac_drops", static_cast<double>(m.mac_drops)},
      {"no_route_drops", static_cast<double>(m.no_route_drops)},
      {"mean_hops", m.mean_hops},
      {"measure_minutes", m.measure_minutes},
      {"nodes_joined", static_cast<double>(m.nodes_joined)},
      {"node_count", static_cast<double>(m.node_count)},
      {"churn_phases", static_cast<double>(m.churn_phases)},
      {"pre_generated", static_cast<double>(m.pre_generated)},
      {"churn_generated", static_cast<double>(m.churn_generated)},
      {"post_generated", static_cast<double>(m.post_generated)},
      {"pre_delivered", static_cast<double>(m.pre_delivered)},
      {"churn_delivered", static_cast<double>(m.churn_delivered)},
      {"post_delivered", static_cast<double>(m.post_delivered)},
      {"pre_pdr_percent", m.pre_pdr_percent},
      {"churn_pdr_percent", m.churn_pdr_percent},
      {"post_pdr_percent", m.post_pdr_percent},
      {"pre_avg_delay_ms", m.pre_avg_delay_ms},
      {"churn_avg_delay_ms", m.churn_avg_delay_ms},
      {"post_avg_delay_ms", m.post_avg_delay_ms},
      {"probes_sent", static_cast<double>(m.probes_sent)},
      {"probes_delivered", static_cast<double>(m.probes_delivered)},
      {"probe_pdr_percent", m.probe_pdr_percent},
      {"probe_avg_latency_ms", m.probe_avg_latency_ms},
      {"node_failures", static_cast<double>(m.node_failures)},
      {"node_revivals", static_cast<double>(m.node_revivals)},
      {"node_rejoins", static_cast<double>(m.node_rejoins)},
      {"orphan_intervals", static_cast<double>(m.orphan_intervals)},
      {"recovery_ttr_censored", static_cast<double>(m.recovery_ttr_censored)},
      {"recovery_rejoin_s", m.recovery_rejoin_s},
      {"recovery_first_delivery_s", m.recovery_first_delivery_s},
      {"recovery_ttr_s", m.recovery_ttr_s},
      {"medium.transmissions", static_cast<double>(r.medium.transmissions)},
      {"medium.deliveries", static_cast<double>(r.medium.deliveries)},
      {"medium.collision_losses", static_cast<double>(r.medium.collision_losses)},
      {"medium.prr_losses", static_cast<double>(r.medium.prr_losses)},
      {"fully_formed", r.fully_formed ? 1.0 : 0.0},
  };
  return values_text(values);
}

std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Usage process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  out.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return out;
}

double host_slowdown() {
  struct Object {
    std::uint64_t words[8];
  };
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  // Per thread: zoo-sweep's workers probe concurrently.
  thread_local std::vector<Object> objects(std::size_t{1} << 16);  // 4 MiB
  thread_local std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  thread_local std::uint64_t x = 88172645463325252ull;
  auto next = [] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  while (heap.size() < 20000) heap.emplace(next() % 1000000, static_cast<std::uint32_t>(next()));
  constexpr int kOps = 6000;
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    const auto [at, id] = heap.top();
    heap.pop();
    Object& o = objects[id & (objects.size() - 1)];
    o.words[id & 7] += at;
    acc += o.words[(id >> 3) & 7];
    heap.emplace(at + 1 + next() % 20000, static_cast<std::uint32_t>(next() ^ acc));
  }
  const double seconds = seconds_since(start);
  thread_local volatile std::uint64_t sink = 0;  // keeps the kernel's work observable
  sink = sink + acc;
  return seconds / kProbeNominal_s;
}

double file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

}  // namespace perfbench
