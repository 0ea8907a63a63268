#include "campaign/report.hpp"

#include <cstdio>
#include <type_traits>
#include <variant>

#include "campaign/journal.hpp"
#include "campaign/jsonio.hpp"

namespace gttsch::campaign {
namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt(std::uint64_t v) { return std::to_string(v); }

/// RFC-4180 quoting: a cell holding a comma, quote or newline is wrapped
/// in quotes, with inner quotes doubled.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

/// A non-spread row's value in `a`, as its report cell.
std::string total_text(const MetricRow& row, const PointAggregate& a) {
  return std::visit(
      [&](auto member) {
        const auto value = metric_ref(a.mean, a.medium_sum, member);
        if constexpr (std::is_same_v<decltype(value), const std::uint64_t>) {
          // An integer mean row holds the seed sum (see Fold::kMean).
          if (row.fold == Fold::kMean) {
            return fmt(a.runs == 0 ? 0.0
                                   : static_cast<double>(value) /
                                         static_cast<double>(a.runs));
          }
        }
        return fmt(value);
      },
      row.member);
}

/// The CSV column of a non-spread row; medium rows carry a prefix.
std::string total_column(const MetricRow& row) {
  return is_medium(row) ? std::string("medium_") + row.name : std::string(row.name);
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
  for (const MetricRow& row : kMetricRows) {
    if (row.fold != Fold::kSpread) continue;
    header.push_back(std::string(row.name) + "_mean");
    header.push_back(std::string(row.name) + "_stddev");
    header.push_back(std::string(row.name) + "_ci95");
  }
  for (const MetricRow& row : kMetricRows) {
    if (row.fold != Fold::kSpread) header.push_back(total_column(row));
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
  for (const MetricRow& m : kMetricRows) {
    if (m.fold != Fold::kSpread) continue;
    const SampleStats& s = a.*m.stats;
    row.push_back(fmt(s.mean));
    row.push_back(fmt(s.stddev));
    // A 95% CI needs at least two samples; a single-seed point gets a
    // blank cell, not a fake 0-width interval.
    row.push_back(s.n > 1 ? fmt(s.ci95_half) : std::string());
  }
  for (const MetricRow& m : kMetricRows) {
    if (m.fold != Fold::kSpread) row.push_back(total_text(m, a));
  }
  return row;
}

std::string render_csv(const std::vector<PointAggregate>& aggregates) {
  std::string out;
  auto append_row = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ',';
      out += csv_escape(cells[i]);
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
    out += "    \"label\": \"" + jsonio::escape(a.label) + "\",\n";
    out += "    \"coords\": {";
    for (std::size_t c = 0; c < a.coords.size(); ++c) {
      if (c > 0) out += ", ";
      out += '"';
      out += jsonio::escape(a.coords[c].first);
      out += "\": \"";
      out += jsonio::escape(a.coords[c].second);
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
    // "metrics": the spread rows; "counters" and "medium": the others.
    const char* separator = "\n";
    out += "    \"metrics\": {";
    for (const MetricRow& m : kMetricRows) {
      if (m.fold != Fold::kSpread) continue;
      const SampleStats& s = a.*m.stats;
      out += separator;
      separator = ",\n";
      out += "      \"";
      out += m.name;
      out += "\": {\"mean\": " + fmt(s.mean) + ", \"stddev\": " + fmt(s.stddev) +
             ", \"ci95\": " + (s.n > 1 ? fmt(s.ci95_half) : std::string("null")) +
             ", \"min\": " + fmt(s.min) +
             ", \"max\": " + fmt(s.max) + ", \"n\": " + std::to_string(s.n) + "}";
    }
    out += "\n    },\n";
    for (const bool medium : {false, true}) {
      out += medium ? "    \"medium\": {" : "    \"counters\": {";
      separator = "";
      for (const MetricRow& m : kMetricRows) {
        if (m.fold == Fold::kSpread || is_medium(m) != medium) continue;
        out += separator;
        separator = ", ";
        out += '"';
        out += m.name;
        out += "\": " + total_text(m, a);
      }
      out += medium ? "}\n" : "},\n";
    }
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
