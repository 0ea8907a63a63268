#include "campaign/report.hpp"

#include <cstdio>

#include "campaign/journal.hpp"
#include "util/csv.hpp"

namespace gttsch::campaign {
namespace {

struct MetricColumn {
  const char* name;
  SampleStats PointAggregate::*stats;
};

constexpr MetricColumn kMetrics[] = {
    {"pdr_percent", &PointAggregate::pdr_percent},
    {"avg_delay_ms", &PointAggregate::avg_delay_ms},
    {"p95_delay_ms", &PointAggregate::p95_delay_ms},
    {"loss_per_minute", &PointAggregate::loss_per_minute},
    {"duty_cycle_percent", &PointAggregate::duty_cycle_percent},
    {"queue_loss_per_node", &PointAggregate::queue_loss_per_node},
    {"throughput_per_minute", &PointAggregate::throughput_per_minute},
    {"mean_hops", &PointAggregate::mean_hops},
    {"pre_pdr_percent", &PointAggregate::pre_pdr_percent},
    {"churn_pdr_percent", &PointAggregate::churn_pdr_percent},
    {"post_pdr_percent", &PointAggregate::post_pdr_percent},
    {"probe_pdr_percent", &PointAggregate::probe_pdr_percent},
    {"probe_avg_latency_ms", &PointAggregate::probe_avg_latency_ms},
    {"recovery_rejoin_s", &PointAggregate::recovery_rejoin_s},
    {"recovery_first_delivery_s", &PointAggregate::recovery_first_delivery_s},
    {"recovery_ttr_s", &PointAggregate::recovery_ttr_s},
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt(std::uint64_t v) { return std::to_string(v); }

/// Nodes joined at the end of a run, averaged over the point's seeds (the
/// aggregate sums it, like the other counters).
double nodes_joined_mean(const PointAggregate& a) {
  return a.runs == 0 ? 0.0
                     : static_cast<double>(a.mean.nodes_joined) /
                           static_cast<double>(a.runs);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> csv_header(const std::vector<PointAggregate>& aggregates) {
  std::vector<std::string> header{"label"};
  if (!aggregates.empty()) {
    for (const auto& [field, value] : aggregates.front().coords) header.push_back(field);
  }
  header.push_back("runs");
  header.push_back("fully_formed_runs");
  header.push_back("status");
  header.push_back("failed_jobs");
  header.push_back("failure_kinds");
  for (const MetricColumn& m : kMetrics) {
    header.push_back(std::string(m.name) + "_mean");
    header.push_back(std::string(m.name) + "_stddev");
    header.push_back(std::string(m.name) + "_ci95");
  }
  for (const char* name :
       {"generated", "delivered", "queue_drops", "mac_drops", "no_route_drops",
        "medium_transmissions", "medium_collision_losses", "medium_prr_losses",
        "pre_generated", "churn_generated", "post_generated", "pre_delivered",
        "churn_delivered", "post_delivered", "probes_sent", "probes_delivered",
        "node_failures", "node_revivals", "node_rejoins", "orphan_intervals",
        "recovery_ttr_censored", "nodes_joined"}) {
    header.push_back(name);
  }
  return header;
}

std::vector<std::string> csv_row(const PointAggregate& a) {
  std::vector<std::string> row{a.label};
  for (const auto& [field, value] : a.coords) row.push_back(value);
  row.push_back(std::to_string(a.runs));
  row.push_back(std::to_string(a.fully_formed_runs));
  row.push_back(point_status(a));
  row.push_back(std::to_string(a.runs_failed));
  row.push_back(failure_kinds_label(a));
  for (const MetricColumn& m : kMetrics) {
    const SampleStats& s = a.*m.stats;
    row.push_back(fmt(s.mean));
    row.push_back(fmt(s.stddev));
    // A 95% CI needs at least two samples; a single-seed point gets a
    // blank cell, not a fake 0-width interval.
    row.push_back(s.n > 1 ? fmt(s.ci95_half) : std::string());
  }
  row.push_back(fmt(a.mean.generated));
  row.push_back(fmt(a.mean.delivered));
  row.push_back(fmt(a.mean.queue_drops));
  row.push_back(fmt(a.mean.mac_drops));
  row.push_back(fmt(a.mean.no_route_drops));
  row.push_back(fmt(a.medium_sum.transmissions));
  row.push_back(fmt(a.medium_sum.collision_losses));
  row.push_back(fmt(a.medium_sum.prr_losses));
  row.push_back(fmt(a.mean.pre_generated));
  row.push_back(fmt(a.mean.churn_generated));
  row.push_back(fmt(a.mean.post_generated));
  row.push_back(fmt(a.mean.pre_delivered));
  row.push_back(fmt(a.mean.churn_delivered));
  row.push_back(fmt(a.mean.post_delivered));
  row.push_back(fmt(a.mean.probes_sent));
  row.push_back(fmt(a.mean.probes_delivered));
  row.push_back(fmt(a.mean.node_failures));
  row.push_back(fmt(a.mean.node_revivals));
  row.push_back(fmt(a.mean.node_rejoins));
  row.push_back(fmt(a.mean.orphan_intervals));
  row.push_back(fmt(a.mean.recovery_ttr_censored));
  row.push_back(fmt(nodes_joined_mean(a)));
  return row;
}

std::string render_csv(const std::vector<PointAggregate>& aggregates) {
  std::string out;
  auto append_row = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ',';
      out += CsvWriter::escape(cells[i]);
    }
    out += '\n';
  };
  append_row(csv_header(aggregates));
  for (const PointAggregate& a : aggregates) append_row(csv_row(a));
  return out;
}

bool write_csv(const std::string& path,
               const std::vector<PointAggregate>& aggregates) {
  return write_text_atomic(path, render_csv(aggregates));
}

std::string render_json(const std::vector<PointAggregate>& aggregates) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const PointAggregate& a = aggregates[i];
    out += "  {\n";
    out += "    \"label\": \"" + json_escape(a.label) + "\",\n";
    out += "    \"coords\": {";
    for (std::size_t c = 0; c < a.coords.size(); ++c) {
      if (c > 0) out += ", ";
      out += '"';
      out += json_escape(a.coords[c].first);
      out += "\": \"";
      out += json_escape(a.coords[c].second);
      out += '"';
    }
    out += "},\n";
    out += "    \"runs\": " + std::to_string(a.runs) + ",\n";
    out += "    \"fully_formed_runs\": " + std::to_string(a.fully_formed_runs) + ",\n";
    out += "    \"status\": \"" + std::string(point_status(a)) + "\",\n";
    out += "    \"failed_jobs\": " + std::to_string(a.runs_failed) + ",\n";
    out += "    \"failure_kinds\": {\"crashed\": " + std::to_string(a.failed_crashed) +
           ", \"timeout\": " + std::to_string(a.failed_timeout) +
           ", \"failed\": " + std::to_string(a.failed_other) + "},\n";
    out += "    \"metrics\": {\n";
    for (std::size_t m = 0; m < std::size(kMetrics); ++m) {
      const SampleStats& s = a.*kMetrics[m].stats;
      out += "      \"";
      out += kMetrics[m].name;
      out += "\": {\"mean\": " + fmt(s.mean) + ", \"stddev\": " + fmt(s.stddev) +
             ", \"ci95\": " + (s.n > 1 ? fmt(s.ci95_half) : std::string("null")) +
             ", \"min\": " + fmt(s.min) +
             ", \"max\": " + fmt(s.max) + ", \"n\": " + std::to_string(s.n) + "}";
      out += (m + 1 < std::size(kMetrics)) ? ",\n" : "\n";
    }
    out += "    },\n";
    out += "    \"counters\": {\"generated\": " + fmt(a.mean.generated) +
           ", \"delivered\": " + fmt(a.mean.delivered) +
           ", \"queue_drops\": " + fmt(a.mean.queue_drops) +
           ", \"mac_drops\": " + fmt(a.mean.mac_drops) +
           ", \"no_route_drops\": " + fmt(a.mean.no_route_drops) +
           ", \"pre_generated\": " + fmt(a.mean.pre_generated) +
           ", \"churn_generated\": " + fmt(a.mean.churn_generated) +
           ", \"post_generated\": " + fmt(a.mean.post_generated) +
           ", \"pre_delivered\": " + fmt(a.mean.pre_delivered) +
           ", \"churn_delivered\": " + fmt(a.mean.churn_delivered) +
           ", \"post_delivered\": " + fmt(a.mean.post_delivered) +
           ", \"probes_sent\": " + fmt(a.mean.probes_sent) +
           ", \"probes_delivered\": " + fmt(a.mean.probes_delivered) +
           ", \"node_failures\": " + fmt(a.mean.node_failures) +
           ", \"node_revivals\": " + fmt(a.mean.node_revivals) +
           ", \"node_rejoins\": " + fmt(a.mean.node_rejoins) +
           ", \"orphan_intervals\": " + fmt(a.mean.orphan_intervals) +
           ", \"recovery_ttr_censored\": " + fmt(a.mean.recovery_ttr_censored) +
           ", \"nodes_joined\": " + fmt(nodes_joined_mean(a)) + "},\n";
    out += "    \"medium\": {\"transmissions\": " + fmt(a.medium_sum.transmissions) +
           ", \"deliveries\": " + fmt(a.medium_sum.deliveries) +
           ", \"collision_losses\": " + fmt(a.medium_sum.collision_losses) +
           ", \"prr_losses\": " + fmt(a.medium_sum.prr_losses) + "}\n";
    out += (i + 1 < aggregates.size()) ? "  },\n" : "  }\n";
  }
  out += "]\n";
  return out;
}

bool write_json(const std::string& path,
                const std::vector<PointAggregate>& aggregates) {
  return write_text_atomic(path, render_json(aggregates));
}

}  // namespace gttsch::campaign
