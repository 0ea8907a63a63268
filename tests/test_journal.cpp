// Journal tests: exact (bit-level) round-trip of results through the
// JSONL format, crash-recovery semantics (truncated last line tolerated,
// mid-file corruption refused), duplicate handling, shard-merge
// re-aggregation, and atomic report writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <type_traits>
#include <variant>

#include "campaign/journal.hpp"

namespace gttsch {
namespace {

using campaign::JournalRecord;
using campaign::JournalWriter;
using campaign::metric_ref;
using campaign::MetricRow;
using campaign::PointAccumulator;
using campaign::PointAggregate;

std::string temp_path(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A record whose doubles exercise non-terminating binary fractions —
/// exactly the values that break sloppy serialization.
JournalRecord nasty_record(std::size_t point_index, std::size_t seed_index) {
  JournalRecord r;
  r.point_index = point_index;
  r.seed_index = seed_index;
  r.seed = 1000 + 17 * seed_index;
  r.campaign_fp = 0xfeedface12345678ull;
  r.label = "traffic_ppm=30 scheduler=gt-tsch";
  r.coords = {{"traffic_ppm", "30"}, {"scheduler", "gt-tsch"}};
  r.result.fully_formed = (seed_index % 2) == 0;
  r.result.metrics.pdr_percent = 100.0 / 3.0 + static_cast<double>(seed_index);
  r.result.metrics.avg_delay_ms = 0.1 + 1e-13 * static_cast<double>(point_index);
  r.result.metrics.p95_delay_ms = 281.99999999999989;
  r.result.metrics.loss_per_minute = 1.0 / 7.0;
  r.result.metrics.duty_cycle_percent = 10.29752;
  r.result.metrics.queue_loss_per_node = 0.0;
  r.result.metrics.throughput_per_minute = 98.000000000000014;
  r.result.metrics.mean_hops = 2.0 / 3.0;
  r.result.metrics.measure_minutes = 5.0;
  r.result.metrics.generated = 123456789012345ull;
  r.result.metrics.delivered = 98;
  r.result.metrics.queue_drops = 3;
  r.result.metrics.mac_drops = 4;
  r.result.metrics.no_route_drops = 5;
  r.result.metrics.nodes_joined = 6;
  r.result.metrics.node_count = 7;
  r.result.medium.transmissions = 400;
  r.result.medium.deliveries = 300;
  r.result.medium.collision_losses = 60;
  r.result.medium.prr_losses = 40;
  return r;
}

void expect_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.point_index, b.point_index);
  EXPECT_EQ(a.seed_index, b.seed_index);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.campaign_fp, b.campaign_fp);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.coords, b.coords);
  EXPECT_EQ(a.result.fully_formed, b.result.fully_formed);
  // Bit-identical doubles, not approximately equal: resume/merge
  // correctness depends on the exact values coming back.
  for (const MetricRow& row : campaign::kMetricRows) {
    std::visit(
        [&](auto member) {
          EXPECT_EQ(metric_ref(a.result.metrics, a.result.medium, member),
                    metric_ref(b.result.metrics, b.result.medium, member))
              << row.name;
        },
        row.member);
  }
}

TEST(Journal, LineRoundTripsBitExactly) {
  const JournalRecord original = nasty_record(3, 1);
  const std::string line = campaign::render_journal_line(original);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(line, &parsed, &error)) << error;
  expect_equal(original, parsed);
}

TEST(Journal, EveryMetricRowRoundTripsBitExactly) {
  // A distinct value per row: doubles with non-terminating binary
  // fractions, counters past 2^53 (where a double would round them). A row
  // that the writer skipped, or the parser read into another member, fails.
  JournalRecord original = nasty_record(0, 0);
  std::uint64_t i = 0;
  for (const MetricRow& row : campaign::kMetricRows) {
    ++i;
    std::visit(
        [&](auto member) {
          auto& value =
              metric_ref(original.result.metrics, original.result.medium, member);
          if constexpr (std::is_same_v<decltype(value), double&>) {
            value = static_cast<double>(i) + 1.0 / 3.0;
          } else {
            value = (std::uint64_t{1} << 53) + i;
          }
        },
        row.member);
  }
  const std::string line = campaign::render_journal_line(original);
  for (const MetricRow& row : campaign::kMetricRows) {
    EXPECT_NE(line.find('"' + std::string(row.name) + "\": "), std::string::npos)
        << row.name;
  }
  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(line, &parsed, &error)) << error;
  expect_equal(original, parsed);
  EXPECT_EQ(campaign::render_journal_line(parsed), line);
}

TEST(Journal, EscapesLabelsAndCoords) {
  JournalRecord r = nasty_record(0, 0);
  r.label = "weird \"label\"\nwith\ttabs\\and slashes";
  r.coords = {{"key \"x\"", "value\n"}};
  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(
      campaign::parse_journal_line(campaign::render_journal_line(r), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.label, r.label);
  EXPECT_EQ(parsed.coords, r.coords);
}

TEST(Journal, RejectsMalformedLines) {
  JournalRecord parsed;
  EXPECT_FALSE(campaign::parse_journal_line("", &parsed, nullptr));
  EXPECT_FALSE(campaign::parse_journal_line("not json", &parsed, nullptr));
  EXPECT_FALSE(campaign::parse_journal_line("{\"point_index\": }", &parsed, nullptr));
  const std::string full = campaign::render_journal_line(nasty_record(0, 0));
  // Every strict prefix is a truncation and must be rejected (the reader
  // then drops it when it is the final line).
  for (const std::size_t len : {full.size() - 1, full.size() / 2, std::size_t{1}}) {
    EXPECT_FALSE(campaign::parse_journal_line(full.substr(0, len), &parsed, nullptr))
        << "prefix length " << len;
  }
  // Trailing garbage after the object is also malformed.
  EXPECT_FALSE(campaign::parse_journal_line(full + "}", &parsed, nullptr));
}

TEST(Journal, SkipsUnknownKeysForForwardCompat) {
  std::string line = campaign::render_journal_line(nasty_record(2, 0));
  line.insert(1, "\"future_field\": {\"nested\": \"x\"}, \"another\": 3.5, ");
  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.point_index, 2u);
}

TEST(Journal, WriterAppendsAndReaderRecovers) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  std::filesystem::remove(path);
  {
    JournalWriter writer(path, /*append_mode=*/false);
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE(writer.append(nasty_record(0, 0)));
    EXPECT_TRUE(writer.append(nasty_record(0, 1)));
  }
  {
    // Append mode keeps the existing records (the resume path).
    JournalWriter writer(path, /*append_mode=*/true);
    EXPECT_TRUE(writer.append(nasty_record(1, 0)));
  }
  std::vector<JournalRecord> records;
  std::string error;
  ASSERT_TRUE(campaign::read_journal(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 3u);
  expect_equal(records[0], nasty_record(0, 0));
  expect_equal(records[1], nasty_record(0, 1));
  expect_equal(records[2], nasty_record(1, 0));
}

TEST(Journal, TruncatedLastLineIsTolerated) {
  const std::string path = temp_path("journal_truncated.jsonl");
  const std::string full = campaign::render_journal_line(nasty_record(0, 0));
  {
    std::ofstream out(path, std::ios::trunc);
    out << campaign::render_journal_line(nasty_record(0, 0)) << '\n'
        << campaign::render_journal_line(nasty_record(0, 1)) << '\n'
        << full.substr(0, full.size() / 2);  // the crash artifact
  }
  std::vector<JournalRecord> records;
  std::string error;
  ASSERT_TRUE(campaign::read_journal(path, &records, &error)) << error;
  EXPECT_EQ(records.size(), 2u);
}

TEST(Journal, AppendAfterCrashTrimsThePartialLine) {
  // Crash artifact + resume: the writer must not glue its first record
  // onto the truncated tail (that would corrupt the journal for the
  // *next* resume).
  const std::string path = temp_path("journal_resume_tail.jsonl");
  const std::string full = campaign::render_journal_line(nasty_record(0, 0));
  {
    std::ofstream out(path, std::ios::trunc);
    out << campaign::render_journal_line(nasty_record(0, 0)) << '\n'
        << full.substr(0, full.size() / 2);
  }
  {
    JournalWriter writer(path, /*append_mode=*/true);
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE(writer.append(nasty_record(0, 1)));
  }
  std::vector<JournalRecord> records;
  std::string error;
  ASSERT_TRUE(campaign::read_journal(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].seed_index, 1u);
}

TEST(Journal, CorruptMiddleLineIsAnError) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << campaign::render_journal_line(nasty_record(0, 0)) << '\n'
        << "garbage in the middle\n"
        << campaign::render_journal_line(nasty_record(0, 1)) << '\n';
  }
  std::vector<JournalRecord> records;
  std::string error;
  EXPECT_FALSE(campaign::read_journal(path, &records, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);

  std::vector<JournalRecord> missing;
  EXPECT_FALSE(campaign::read_journal(temp_path("does_not_exist.jsonl"), &missing,
                                      &error));
}

TEST(Journal, DuplicateKeysKeepFirstRecord) {
  const std::string path = temp_path("journal_dup.jsonl");
  JournalRecord first = nasty_record(0, 0);
  JournalRecord second = nasty_record(0, 0);
  second.result.metrics.pdr_percent = 11.0;
  {
    JournalWriter writer(path, false);
    writer.append(first);
    writer.append(second);
  }
  std::vector<JournalRecord> records;
  std::string error;
  ASSERT_TRUE(campaign::read_journal(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].result.metrics.pdr_percent,
            first.result.metrics.pdr_percent);
}

TEST(Journal, RejectsConflictingDuplicateKeys) {
  // Two campaigns' journals concatenated into one file (`cat a b > all`)
  // collide on (point_index, seed_index) with different identities. If the
  // reader silently kept the first, a single-file merge would print
  // first-campaign-only statistics and exit 0 while `merge a b` on the
  // same data is correctly rejected — so the reader must reject it too.
  const std::string path = temp_path("journal_conflict.jsonl");
  JournalRecord a = nasty_record(0, 0);
  JournalRecord b = nasty_record(0, 0);
  b.seed = 4242;
  b.label = "traffic_ppm=120 scheduler=gt-tsch";
  {
    JournalWriter writer(path, false);
    writer.append(a);
    writer.append(b);
  }
  std::vector<JournalRecord> records;
  std::string error;
  EXPECT_FALSE(campaign::read_journal(path, &records, &error));
  EXPECT_NE(error.find("disagrees"), std::string::npos) << error;
}

TEST(Journal, AggregateRecordsMatchesDirectAccumulation) {
  // Shard-merge contract: records shuffled across shards reduce to the
  // same aggregates as in-process accumulation.
  std::vector<JournalRecord> records;
  for (const std::size_t seed_index : {2, 0, 1}) {  // arrival order scrambled
    records.push_back(nasty_record(1, seed_index));
  }
  records.push_back(nasty_record(0, 0));
  records.push_back(nasty_record(1, 1));  // exact cross-shard duplicate, dropped

  std::vector<PointAggregate> merged;
  std::string agg_error;
  ASSERT_TRUE(campaign::aggregate_records(records, &merged, &agg_error)) << agg_error;
  ASSERT_EQ(merged.size(), 2u);  // ordered by point_index
  EXPECT_EQ(merged[0].runs, 1);
  EXPECT_EQ(merged[1].runs, 3);

  PointAccumulator direct;
  for (const std::size_t s : {0, 1, 2}) {
    direct.add(s, nasty_record(1, s).result);
  }
  const PointAggregate expected = direct.finalize();
  EXPECT_EQ(merged[1].pdr_percent.mean, expected.pdr_percent.mean);
  EXPECT_EQ(merged[1].pdr_percent.stddev, expected.pdr_percent.stddev);
  EXPECT_EQ(merged[1].pdr_percent.ci95_half, expected.pdr_percent.ci95_half);
  EXPECT_EQ(merged[1].mean.generated, expected.mean.generated);
  EXPECT_EQ(merged[1].label, "traffic_ppm=30 scheduler=gt-tsch");
}

TEST(Journal, AggregateRecordsRejectsMixedCampaigns) {
  // Journals from two different campaigns share point indices but not
  // labels (or seed values); merging them must fail loudly rather than
  // silently averaging apples with oranges.
  JournalRecord a = nasty_record(0, 0);
  JournalRecord b = nasty_record(0, 1);
  b.label = "traffic_ppm=120 scheduler=gt-tsch";
  std::vector<PointAggregate> merged;
  std::string error;
  EXPECT_FALSE(campaign::aggregate_records({a, b}, &merged, &error));
  EXPECT_NE(error.find("disagree"), std::string::npos);

  // Same key, same label, different seed value: also two campaigns.
  JournalRecord c = nasty_record(0, 0);
  c.seed = 4242;
  c.result.metrics.pdr_percent = 1.0;
  EXPECT_FALSE(campaign::aggregate_records({a, c}, &merged, &error));
  EXPECT_NE(error.find("seed"), std::string::npos);
}

TEST(Journal, AggregateRecordsRejectsDifferentCampaignFingerprints) {
  // Journals from two campaigns that differ only in the base config (e.g.
  // --set nodes_per_dodag) have identical labels/coords, and sharded
  // journals never collide on a point — only the cross-record campaign
  // fingerprint can catch the mix.
  JournalRecord a = nasty_record(0, 0);
  JournalRecord b = nasty_record(1, 0);
  b.label = "traffic_ppm=120 scheduler=gt-tsch";  // different point: no key clash
  b.coords = {{"traffic_ppm", "120"}, {"scheduler", "gt-tsch"}};
  b.campaign_fp = 0x1111111111111111ull;
  std::vector<PointAggregate> merged;
  std::string error;
  EXPECT_FALSE(campaign::aggregate_records({a, b}, &merged, &error));
  EXPECT_NE(error.find("different campaigns"), std::string::npos) << error;

  // A pre-fingerprint record (fp 0) is a wildcard, not a mismatch.
  b.campaign_fp = 0;
  EXPECT_TRUE(campaign::aggregate_records({a, b}, &merged, &error)) << error;
  EXPECT_EQ(merged.size(), 2u);
}

TEST(Journal, WriteTextAtomicLeavesNoTempFile) {
  const std::string path = temp_path("atomic.txt");
  ASSERT_TRUE(campaign::write_text_atomic(path, "hello\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwrite is atomic too.
  ASSERT_TRUE(campaign::write_text_atomic(path, "second\n"));
  std::ifstream again(path);
  std::string content2((std::istreambuf_iterator<char>(again)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(content2, "second\n");
}

}  // namespace
}  // namespace gttsch
