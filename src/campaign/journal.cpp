#include "campaign/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <type_traits>
#include <variant>

#include "campaign/jsonio.hpp"

namespace gttsch::campaign {
namespace {

using jsonio::Cursor;
using jsonio::escape;
using jsonio::fmt_double;
using jsonio::parse_object;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// ------------------------------------------------- parsing, rendering --
// The shared reader lives in campaign/jsonio.hpp; what follows are the
// journal-specific object parsers built on it, and the metric-row writer.

/// Parses the "metrics" (medium == false) or "medium" object's rows.
bool parse_rows(Cursor& cur, bool medium, ExperimentResult* result) {
  return parse_object(cur, [&](const std::string& key) {
    for (const MetricRow& row : kMetricRows) {
      if (is_medium(row) != medium || key != row.name) continue;
      return std::visit(
          [&](auto member) {
            auto& value = metric_ref(result->metrics, result->medium, member);
            if constexpr (std::is_same_v<decltype(value), double&>) {
              return cur.parse_double(&value);
            } else {
              return cur.parse_u64(&value);
            }
          },
          row.member);
    }
    return cur.skip_value();
  });
}

/// Renders the "metrics" (medium == false) or "medium" object's rows.
void render_rows(const ExperimentResult& result, bool medium, std::string* out) {
  *out += '{';
  const char* separator = "";
  for (const MetricRow& row : kMetricRows) {
    if (is_medium(row) != medium) continue;
    *out += separator;
    separator = ", ";
    *out += '"';
    *out += row.name;
    *out += "\": ";
    std::visit(
        [&](auto member) {
          const auto value = metric_ref(result.metrics, result.medium, member);
          if constexpr (std::is_same_v<decltype(value), const double>) {
            *out += fmt_double(value);
          } else {
            *out += std::to_string(value);
          }
        },
        row.member);
  }
  *out += '}';
}

bool parse_coords(Cursor& cur,
                  std::vector<std::pair<std::string, std::string>>* coords) {
  coords->clear();
  return parse_object(cur, [&](const std::string& key) {
    std::string value;
    if (!cur.parse_string(&value)) return false;
    coords->emplace_back(key, std::move(value));
    return true;
  });
}

}  // namespace

std::string render_journal_line(const JournalRecord& r) {
  std::string out = "{\"point_index\": " + std::to_string(r.point_index) +
                    ", \"seed_index\": " + std::to_string(r.seed_index) +
                    ", \"seed\": " + std::to_string(r.seed) + ", \"campaign_fp\": " +
                    std::to_string(r.campaign_fp) + ", \"label\": \"" +
                    escape(r.label) + "\", \"coords\": {";
  for (std::size_t i = 0; i < r.coords.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + escape(r.coords[i].first) + "\": \"" + escape(r.coords[i].second) +
           '"';
  }
  out += '}';
  if (r.status != JobStatus::kOk) {
    // Quarantined job: failure fields instead of metrics.
    out += ", \"status\": \"" + std::string(job_status_name(r.status)) +
           "\", \"attempts\": " + std::to_string(r.attempts) +
           ", \"exit_code\": " + std::to_string(r.exit_code) +
           ", \"term_signal\": " + std::to_string(r.term_signal) + "}";
    return out;
  }
  // Successful job. With attempts == 1 (the overwhelmingly common case)
  // this is byte-identical to the pre-status journal format, which keeps
  // old journals and new ones interchangeable and preserves the
  // isolated-vs-in-process byte-identity contract.
  if (r.attempts != 1) out += ", \"attempts\": " + std::to_string(r.attempts);
  out += ", \"fully_formed\": ";
  out += r.result.fully_formed ? "true" : "false";
  out += ", \"metrics\": ";
  render_rows(r.result, /*medium=*/false, &out);
  out += ", \"medium\": ";
  render_rows(r.result, /*medium=*/true, &out);
  out += '}';
  return out;
}

bool parse_journal_line(const std::string& line, JournalRecord* out,
                        std::string* error) {
  *out = JournalRecord{};
  Cursor cur(line);
  const bool ok = parse_object(cur, [&](const std::string& key) {
    if (key == "point_index") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(&v)) return false;
      out->point_index = static_cast<std::size_t>(v);
      return true;
    }
    if (key == "seed_index") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(&v)) return false;
      out->seed_index = static_cast<std::size_t>(v);
      return true;
    }
    if (key == "seed") return cur.parse_u64(&out->seed);
    if (key == "campaign_fp") return cur.parse_u64(&out->campaign_fp);
    if (key == "label") return cur.parse_string(&out->label);
    if (key == "coords") return parse_coords(cur, &out->coords);
    if (key == "status") {
      // Absent in rev-1 journals; JournalRecord defaults to kOk.
      std::string name;
      return cur.parse_string(&name) && parse_job_status(name, &out->status);
    }
    if (key == "attempts") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(&v) || v == 0) return false;
      out->attempts = static_cast<int>(v);
      return true;
    }
    if (key == "exit_code") {
      // Signed: the WIFEXITED-false fallback journals exit_code -1, and a
      // record the writer emits must never fail to parse back (a malformed
      // non-final line is a hard read_journal error that bricks resume).
      std::int64_t v = 0;
      if (!cur.parse_i64(&v)) return false;
      out->exit_code = static_cast<int>(v);
      return true;
    }
    if (key == "term_signal") {
      std::int64_t v = 0;
      if (!cur.parse_i64(&v)) return false;
      out->term_signal = static_cast<int>(v);
      return true;
    }
    if (key == "fully_formed") return cur.parse_bool(&out->result.fully_formed);
    if (key == "metrics") return parse_rows(cur, /*medium=*/false, &out->result);
    if (key == "medium") return parse_rows(cur, /*medium=*/true, &out->result);
    return cur.skip_value();
  });
  if (!ok || !cur.at_end()) {
    return fail(error, "malformed journal line: " +
                           (line.size() > 80 ? line.substr(0, 80) + "..." : line));
  }
  return true;
}

namespace {

/// Drops a trailing partial line — the artifact of a crash mid-append —
/// so resumed appends start on a fresh line. Without this, the first new
/// record would glue onto the partial line, turning a tolerated
/// truncated *last* line into a fatal malformed *middle* line. Returns
/// false when the journal could not be inspected or truncated; appending
/// after a failed trim would cause exactly that corruption.
bool trim_partial_tail(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return true;  // missing/empty journal: nothing to trim
  std::uintmax_t keep = size;  // bytes up to and including the last '\n'
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    while (keep > 0) {
      in.seekg(static_cast<std::streamoff>(keep - 1));
      char c = 0;
      if (!in.get(c)) return false;
      if (c == '\n') break;
      --keep;
    }
  }  // close the read handle: an open one can block resize_file (Windows)
  if (keep == size) return true;
  std::filesystem::resize_file(path, keep, ec);
  return !ec;
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path, bool append_mode) {
  if (append_mode && !trim_partial_tail(path)) {
    out_.setstate(std::ios::failbit);  // surfaced via ok(), like an open failure
    return;
  }
  out_.open(path, append_mode ? std::ios::app : std::ios::trunc);
}

bool JournalWriter::append(const JournalRecord& record) {
  if (!out_.good()) return false;
  // One complete line per write, flushed immediately: a crash can truncate
  // only the line being written, which read_journal drops.
  out_ << render_journal_line(record) << '\n';
  out_.flush();
  return out_.good();
}

bool read_journal(const std::string& path, std::vector<JournalRecord>* out,
                  std::string* error) {
  out->clear();
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open journal '" + path + "'");

  std::map<std::pair<std::size_t, std::size_t>, std::size_t> seen;  // key -> out index
  std::string line;
  std::string pending_error;
  bool pending_bad_line = false;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (pending_bad_line) {
      // A malformed line in the *middle* of the journal is corruption,
      // not a crash artifact; refuse rather than silently drop results.
      return fail(error, pending_error + " (line " +
                             std::to_string(line_number - 1) +
                             " is malformed but not the last line)");
    }
    JournalRecord record;
    if (!parse_journal_line(line, &record, &pending_error)) {
      pending_bad_line = true;  // tolerated iff it turns out to be the last line
      continue;
    }
    const auto [it, inserted] =
        seen.emplace(std::make_pair(record.point_index, record.seed_index),
                     out->size());
    if (inserted) {
      out->push_back(std::move(record));
      continue;
    }
    // Duplicate key: tolerable only when it is the *same* job (overlapping
    // resumed journals). A different seed/label under the same key is two
    // campaigns concatenated into one file — dropping one silently would
    // bypass the mixed-campaign rejection that aggregate_records enforces
    // for separate files.
    JournalRecord& kept = (*out)[it->second];
    if (record.seed != kept.seed || record.label != kept.label ||
        record.coords != kept.coords ||
        (record.campaign_fp != 0 && kept.campaign_fp != 0 &&
         record.campaign_fp != kept.campaign_fp)) {
      return fail(error, "journal disagrees with itself about point " +
                             std::to_string(record.point_index) + " seed #" +
                             std::to_string(record.seed_index) +
                             " (two campaigns concatenated?)");
    }
    // --retry-quarantined appends the successful re-run after the original
    // quarantine record; the later ok record supersedes the failure.
    if (kept.status != JobStatus::kOk && record.status == JobStatus::kOk) {
      kept = std::move(record);
    }
  }
  return true;
}

bool aggregate_records(const std::vector<JournalRecord>& records,
                       std::vector<PointAggregate>* out, std::string* error) {
  // point_index -> (accumulator, label, coords); std::map iterates in
  // point order, which is the unsharded report order.
  struct PointData {
    PointAccumulator accumulator;
    std::string label;
    std::vector<std::pair<std::string, std::string>> coords;
    std::map<std::size_t, std::uint64_t> seed_by_index;
    std::set<std::size_t> ok_seeds;  ///< seeds whose success is already added
  };
  std::map<std::size_t, PointData> by_point;
  // One fingerprint across ALL records, not per point: two campaigns that
  // differ only in the base config (e.g. --set nodes_per_dodag) produce
  // identical labels/coords, and sharded journals never collide on a
  // point, so a per-point or per-key check would not catch the mix.
  std::uint64_t campaign_fp = 0;
  for (const JournalRecord& r : records) {
    if (r.campaign_fp != 0) {
      if (campaign_fp == 0) {
        campaign_fp = r.campaign_fp;
      } else if (r.campaign_fp != campaign_fp) {
        return fail(error,
                    "journals come from different campaigns (base "
                    "configuration or seed list differs) and must not be "
                    "merged");
      }
    }
    PointData& data = by_point[r.point_index];
    if (data.seed_by_index.empty()) {
      data.label = r.label;
      data.coords = r.coords;
    } else if (r.label != data.label || r.coords != data.coords) {
      // Same point index, different identity: these journals belong to
      // two different campaigns and must not be averaged together.
      return fail(error, "journals disagree about point " +
                             std::to_string(r.point_index) + ": '" + data.label +
                             "' vs '" + r.label + "'");
    }
    const auto [it, inserted] = data.seed_by_index.emplace(r.seed_index, r.seed);
    if (!inserted) {
      if (it->second != r.seed) {
        return fail(error, "journals disagree about point " +
                               std::to_string(r.point_index) + " seed #" +
                               std::to_string(r.seed_index) + ": " +
                               std::to_string(it->second) + " vs " +
                               std::to_string(r.seed));
      }
      // Duplicate key across journals (e.g. overlapping resumed shards):
      // keep the first record, except that an ok record supersedes an
      // earlier quarantined one (--retry-quarantined appends the retried
      // success after the failure it cures).
      if (r.status == JobStatus::kOk && data.ok_seeds.count(r.seed_index) == 0) {
        data.accumulator.add(r.seed_index, r.result);
        data.ok_seeds.insert(r.seed_index);
      }
      continue;
    }
    if (r.status == JobStatus::kOk) {
      data.accumulator.add(r.seed_index, r.result);
      data.ok_seeds.insert(r.seed_index);
    } else {
      data.accumulator.add_failure(r.seed_index, r.status);
    }
  }
  out->clear();
  out->reserve(by_point.size());
  for (const auto& [point_index, data] : by_point) {
    PointAggregate agg = data.accumulator.finalize();
    agg.label = data.label;
    agg.coords = data.coords;
    out->push_back(std::move(agg));
  }
  return true;
}

bool write_text_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << text;
    out.flush();
    if (!out.good()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace gttsch::campaign
