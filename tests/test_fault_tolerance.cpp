// Fault-tolerance tests: journal schema rev 2 (status records, old-line
// compatibility, ok-supersedes-quarantined), failure accounting in the
// aggregates and reports, runner retries/quarantine, resume semantics for
// quarantined records, the job-envelope round trip, the in-child run-job
// protocol (bit-identical to in-process execution).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "campaign/isolate.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "scenario/experiment.hpp"

namespace gttsch {
namespace {

using namespace literals;
using campaign::JobOutcome;
using campaign::JobStatus;
using campaign::JournalRecord;
using campaign::JournalWriter;
using campaign::PointAccumulator;
using campaign::PointAggregate;

std::string test_file(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Ok record with metrics whose doubles exercise exact round-tripping.
JournalRecord ok_record(std::size_t point_index, std::size_t seed_index) {
  JournalRecord r;
  r.point_index = point_index;
  r.seed_index = seed_index;
  r.seed = 1000 + 17 * seed_index;
  r.campaign_fp = 0xfeedface12345678ull;
  r.label = "traffic_ppm=30";
  r.coords = {{"traffic_ppm", "30"}};
  r.result.fully_formed = true;
  r.result.metrics.pdr_percent = 100.0 / 3.0;
  r.result.metrics.avg_delay_ms = 281.99999999999989;
  r.result.metrics.generated = 240;
  r.result.metrics.delivered = 200;
  r.result.metrics.node_count = 5;
  r.result.medium.transmissions = 700;
  return r;
}

JournalRecord crashed_record(std::size_t point_index, std::size_t seed_index) {
  JournalRecord r = ok_record(point_index, seed_index);
  r.result = {};
  r.status = JobStatus::kCrashed;
  r.term_signal = 11;
  r.attempts = 3;
  return r;
}

// ---------------------------------------------------------------- status --

TEST(FaultStatus, NameAndParseRoundTrip) {
  for (const JobStatus s : {JobStatus::kOk, JobStatus::kCrashed,
                            JobStatus::kTimeout, JobStatus::kFailed}) {
    JobStatus parsed = JobStatus::kOk;
    ASSERT_TRUE(campaign::parse_job_status(campaign::job_status_name(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  JobStatus parsed = JobStatus::kOk;
  EXPECT_FALSE(campaign::parse_job_status("exploded", &parsed));
}

// --------------------------------------------------------------- journal --

// Schema rev 2 must not disturb rev-1 output for healthy records: an ok
// record with attempts == 1 renders without any of the new keys, which is
// what keeps --isolate results byte-identical to non-isolated runs and
// old tooling able to read new journals.
TEST(FaultJournal, OkRecordRendersWithoutStatusKeys) {
  const std::string line = campaign::render_journal_line(ok_record(0, 0));
  EXPECT_EQ(line.find("\"status\""), std::string::npos);
  EXPECT_EQ(line.find("\"attempts\""), std::string::npos);
  EXPECT_EQ(line.find("\"exit_code\""), std::string::npos);
  EXPECT_EQ(line.find("\"term_signal\""), std::string::npos);

  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.status, JobStatus::kOk);
  EXPECT_EQ(parsed.attempts, 1);
}

TEST(FaultJournal, FailureRecordRoundTripsAndCarriesNoMetrics) {
  const JournalRecord r = crashed_record(2, 1);
  const std::string line = campaign::render_journal_line(r);
  EXPECT_NE(line.find("\"status\": \"crashed\""), std::string::npos);
  EXPECT_EQ(line.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(line.find("\"medium\""), std::string::npos);

  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.status, JobStatus::kCrashed);
  EXPECT_EQ(parsed.term_signal, 11);
  EXPECT_EQ(parsed.attempts, 3);
  EXPECT_EQ(parsed.point_index, 2u);
  EXPECT_EQ(parsed.seed_index, 1u);
  EXPECT_EQ(parsed.label, r.label);
}

// run_job_isolated journals exit_code -1 when waitpid reports neither
// WIFEXITED nor WIFSIGNALED; the parser must accept the sign, or that
// record becomes a malformed non-final line that bricks resume/merge.
TEST(FaultJournal, NegativeExitCodeRoundTrips) {
  JournalRecord r = ok_record(1, 0);
  r.result = {};
  r.status = JobStatus::kFailed;
  r.exit_code = -1;
  r.attempts = 2;
  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(campaign::render_journal_line(r),
                                           &parsed, &error))
      << error;
  EXPECT_EQ(parsed.status, JobStatus::kFailed);
  EXPECT_EQ(parsed.exit_code, -1);
  EXPECT_EQ(parsed.attempts, 2);
}

TEST(FaultJournal, OkRecordKeepsRetryAttemptCount) {
  JournalRecord r = ok_record(0, 0);
  r.attempts = 2;  // succeeded on the first retry
  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(campaign::render_journal_line(r),
                                           &parsed, &error))
      << error;
  EXPECT_EQ(parsed.status, JobStatus::kOk);
  EXPECT_EQ(parsed.attempts, 2);
  EXPECT_EQ(parsed.result.metrics.generated, r.result.metrics.generated);
}

// A journal written before schema rev 2 has no status key at all; it must
// still read as all-ok records (resume and merge keep working).
TEST(FaultJournal, PreStatusLineDefaultsToOk) {
  const std::string line =
      "{\"point\": 0, \"seed_index\": 0, \"seed\": 1000, \"label\": \"x\", "
      "\"coords\": {}, \"fully_formed\": true, \"metrics\": {}, "
      "\"medium\": {}}";
  JournalRecord parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.status, JobStatus::kOk);
  EXPECT_EQ(parsed.attempts, 1);
}

// A --retry-quarantined resume appends the ok re-run AFTER the failure
// record; on the next read the ok record must win.
TEST(FaultJournal, OkRecordSupersedesQuarantinedOnReread) {
  const std::string path = test_file("supersede.jsonl");
  std::filesystem::remove(path);
  {
    JournalWriter writer(path, /*append_mode=*/false);
    ASSERT_TRUE(writer.append(crashed_record(0, 0)));
    ASSERT_TRUE(writer.append(ok_record(0, 0)));
    // The reverse order must NOT supersede: once a seed has an ok record,
    // a later failure (e.g. a retried duplicate) cannot erase it.
    ASSERT_TRUE(writer.append(ok_record(0, 1)));
    ASSERT_TRUE(writer.append(crashed_record(0, 1)));
  }
  std::vector<JournalRecord> records;
  std::string error;
  ASSERT_TRUE(campaign::read_journal(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, JobStatus::kOk);
  EXPECT_EQ(records[1].status, JobStatus::kOk);
}

// ------------------------------------------------------------- aggregate --

TEST(FaultAggregate, CountsFailuresByKind) {
  PointAccumulator acc;
  acc.add(0, ok_record(0, 0).result);
  acc.add_failure(1, JobStatus::kCrashed);
  acc.add_failure(2, JobStatus::kTimeout);
  acc.add_failure(3, JobStatus::kCrashed);
  acc.add_failure(4, JobStatus::kFailed);
  const PointAggregate agg = acc.finalize();
  EXPECT_EQ(agg.runs, 1);
  EXPECT_EQ(agg.runs_failed, 4);
  EXPECT_EQ(agg.failed_crashed, 2);
  EXPECT_EQ(agg.failed_timeout, 1);
  EXPECT_EQ(agg.failed_other, 1);
  EXPECT_STREQ(campaign::point_status(agg), "ok");
  EXPECT_EQ(campaign::failure_kinds_label(agg), "crashed:2;timeout:1;failed:1");
}

TEST(FaultAggregate, SuccessSupersedesFailureForTheSameSeed) {
  PointAccumulator acc;
  acc.add_failure(0, JobStatus::kCrashed);
  acc.add(0, ok_record(0, 0).result);  // retry-quarantined re-run succeeded
  acc.add(1, ok_record(0, 1).result);
  acc.add_failure(1, JobStatus::kTimeout);  // stale duplicate: ignored
  const PointAggregate agg = acc.finalize();
  EXPECT_EQ(agg.runs, 2);
  EXPECT_EQ(agg.runs_failed, 0);
}

// Satellite fix: a point whose every job failed used to emit a runs == 0
// row indistinguishable from "not in this shard"; it must now carry
// status=failed with its failure counts intact.
TEST(FaultAggregate, AllFailedPointIsStatusFailedNotEmpty) {
  PointAccumulator acc;
  acc.add_failure(0, JobStatus::kCrashed);
  acc.add_failure(1, JobStatus::kCrashed);
  const PointAggregate agg = acc.finalize();
  EXPECT_EQ(agg.runs, 0);
  EXPECT_EQ(agg.runs_failed, 2);
  EXPECT_STREQ(campaign::point_status(agg), "failed");

  const PointAggregate empty = PointAccumulator().finalize();
  EXPECT_STREQ(campaign::point_status(empty), "empty");
  EXPECT_EQ(campaign::failure_kinds_label(empty), "");
}

TEST(FaultAggregate, MergeAccountsQuarantinedRecords) {
  std::vector<JournalRecord> records;
  records.push_back(ok_record(0, 0));
  records.push_back(crashed_record(0, 1));
  JournalRecord timeout = crashed_record(0, 2);
  timeout.status = JobStatus::kTimeout;
  timeout.term_signal = 9;
  records.push_back(timeout);
  // Cross-file supersede: a later shard carries the ok re-run of seed 1.
  records.push_back(ok_record(0, 1));

  std::vector<PointAggregate> aggregates;
  std::string error;
  ASSERT_TRUE(campaign::aggregate_records(records, &aggregates, &error)) << error;
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_EQ(aggregates[0].runs, 2);
  EXPECT_EQ(aggregates[0].runs_failed, 1);
  EXPECT_EQ(aggregates[0].failed_timeout, 1);

  const std::string csv = campaign::render_csv(aggregates);
  EXPECT_NE(csv.find(",status,failed_jobs,failure_kinds"), std::string::npos);
  EXPECT_NE(csv.find("timeout:1"), std::string::npos);
  const std::string json = campaign::render_json(aggregates);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"failed_jobs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"timeout\": 1"), std::string::npos);
}

// ---------------------------------------------------------------- runner --

campaign::Job job_at(std::size_t index, std::size_t point_index,
                     std::size_t seed_index) {
  campaign::Job job;
  job.index = index;
  job.point_index = point_index;
  job.seed_index = seed_index;
  job.config.seed = 1 + seed_index;
  return job;
}

TEST(FaultRunner, RetriesUntilSuccessAndCountsAttempts) {
  std::atomic<int> calls{0};
  campaign::RunnerOptions options;
  options.jobs = 1;
  options.retries = 3;
  options.retry_backoff_ms = 1;  // keep the test fast
  options.run_job_fn = [&calls](const campaign::Job&) {
    JobOutcome outcome;
    if (++calls < 3) outcome.status = JobStatus::kCrashed;
    return outcome;
  };
  campaign::Runner runner(options);
  const auto result = runner.run({job_at(0, 0, 0)});
  EXPECT_EQ(calls.load(), 3);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].status, JobStatus::kOk);
  EXPECT_EQ(result.outcomes[0].attempts, 3);
}

TEST(FaultRunner, QuarantinesAfterRetriesExhaustedAndContinues) {
  std::atomic<int> sick_calls{0};
  campaign::RunnerOptions options;
  options.jobs = 1;
  options.retries = 2;
  options.retry_backoff_ms = 1;
  options.run_job_fn = [&sick_calls](const campaign::Job& job) {
    JobOutcome outcome;
    if (job.seed_index == 0) {  // one deterministic crasher among healthy jobs
      ++sick_calls;
      outcome.status = JobStatus::kCrashed;
      outcome.term_signal = 11;
    }
    return outcome;
  };
  campaign::Runner runner(options);
  const auto result = runner.run({job_at(0, 0, 0), job_at(1, 0, 1)});
  EXPECT_EQ(sick_calls.load(), 3);  // 1 + 2 retries
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.outcomes[0].status, JobStatus::kCrashed);
  EXPECT_EQ(result.outcomes[0].attempts, 3);
  EXPECT_EQ(result.outcomes[0].term_signal, 11);
  EXPECT_EQ(result.outcomes[1].status, JobStatus::kOk);  // campaign continued
}

TEST(FaultRunner, ExternalCancelFlagStopsClaiming) {
  std::atomic<bool> interrupted{false};
  campaign::RunnerOptions options;
  options.jobs = 1;
  options.cancel_flag = &interrupted;
  options.run_job_fn = [](const campaign::Job&) { return JobOutcome{}; };
  options.on_progress = [&interrupted](const campaign::Progress& p) {
    if (p.completed == 2) interrupted.store(true);
  };
  campaign::Runner runner(options);
  std::vector<campaign::Job> jobs;
  for (std::size_t i = 0; i < 6; ++i) jobs.push_back(job_at(i, 0, i));
  const auto result = runner.run(jobs);
  EXPECT_TRUE(result.cancelled);
  std::size_t done = 0;
  for (const std::uint8_t c : result.completed) done += c;
  EXPECT_EQ(done, 2u);
}

// ------------------------------------------------------ campaign + resume --

std::vector<campaign::GridPoint> two_points() {
  campaign::CampaignSpec spec;
  spec.base.dodag_count = 1;
  spec.base.nodes_per_dodag = 4;
  spec.axes = {{"traffic_ppm", {"30", "120"}}};
  spec.seeds = {1};  // expand_grid validates the whole spec, seeds included
  std::string error;
  return campaign::expand_grid(spec, &error);
}

JobOutcome synthetic_outcome(const campaign::Job& job) {
  JobOutcome outcome;
  outcome.result.fully_formed = true;
  outcome.result.metrics.pdr_percent =
      90.0 + static_cast<double>(job.point_index) +
      static_cast<double>(job.seed_index) / 7.0;
  outcome.result.metrics.generated = 100 + job.config.seed;
  outcome.result.metrics.node_count = 4;
  return outcome;
}

TEST(FaultCampaign, QuarantinesJournalAndResumes) {
  const std::string journal = test_file("fault_campaign.jsonl");
  std::filesystem::remove(journal);
  const std::vector<campaign::GridPoint> points = two_points();
  ASSERT_EQ(points.size(), 2u);
  const std::vector<std::uint64_t> seeds = {1, 2, 3};

  // Point 1, seed #1 crashes deterministically; everything else is healthy.
  std::atomic<int> invocations{0};
  auto execute = [&invocations](const campaign::Job& job) {
    ++invocations;
    if (job.point_index == 1 && job.seed_index == 1) {
      JobOutcome outcome;
      outcome.status = JobStatus::kCrashed;
      outcome.term_signal = 6;
      return outcome;
    }
    return synthetic_outcome(job);
  };

  campaign::CampaignOptions options;
  options.runner.jobs = 1;
  options.runner.retries = 1;
  options.runner.retry_backoff_ms = 1;
  options.runner.run_job_fn = execute;
  options.journal_path = journal;

  campaign::CampaignResult result;
  std::string error;
  ASSERT_TRUE(campaign::run_points_campaign(points, seeds, options, &result,
                                            &error))
      << error;
  EXPECT_EQ(invocations.load(), 7);  // 6 jobs + 1 retry of the crasher
  EXPECT_EQ(result.jobs_run, 6u);
  EXPECT_EQ(result.jobs_failed, 1u);
  ASSERT_EQ(result.aggregates.size(), 2u);
  EXPECT_EQ(result.aggregates[0].runs, 3);
  EXPECT_EQ(result.aggregates[0].runs_failed, 0);
  EXPECT_EQ(result.aggregates[1].runs, 2);
  EXPECT_EQ(result.aggregates[1].runs_failed, 1);
  EXPECT_EQ(result.aggregates[1].failed_crashed, 1);

  std::vector<JournalRecord> records;
  ASSERT_TRUE(campaign::read_journal(journal, &records, &error)) << error;
  ASSERT_EQ(records.size(), 6u);
  int failures = 0;
  for (const JournalRecord& r : records) {
    if (r.status != JobStatus::kOk) {
      ++failures;
      EXPECT_EQ(r.point_index, 1u);
      EXPECT_EQ(r.seed_index, 1u);
      EXPECT_EQ(r.attempts, 2);
      EXPECT_EQ(r.term_signal, 6);
    }
  }
  EXPECT_EQ(failures, 1);

  // Plain resume: quarantined stays quarantined, nothing re-runs.
  invocations = 0;
  options.resume = true;
  campaign::CampaignResult resumed;
  ASSERT_TRUE(campaign::run_points_campaign(points, seeds, options, &resumed,
                                            &error))
      << error;
  EXPECT_EQ(invocations.load(), 0);
  EXPECT_EQ(resumed.jobs_skipped, 6u);
  EXPECT_EQ(resumed.jobs_failed, 1u);

  // --retry-quarantined: exactly the failed job re-runs. Swap in an
  // all-healthy execute function so the re-run succeeds this time.
  invocations = 0;
  options.runner.run_job_fn = [&invocations](const campaign::Job& job) {
    ++invocations;
    return synthetic_outcome(job);
  };
  options.fault.retry_quarantined = true;
  campaign::CampaignResult retried;
  ASSERT_TRUE(campaign::run_points_campaign(points, seeds, options, &retried,
                                            &error))
      << error;
  EXPECT_EQ(invocations.load(), 1);  // exactly the quarantined job
  EXPECT_EQ(retried.jobs_run, 1u);
  EXPECT_EQ(retried.jobs_skipped, 5u);
  EXPECT_EQ(retried.jobs_failed, 0u);
  EXPECT_EQ(retried.aggregates[1].runs, 3);

  // The journal now ends with the ok re-run; a further resume must treat
  // the seed as done even without --retry-quarantined.
  invocations = 0;
  options.fault.retry_quarantined = false;
  campaign::CampaignResult settled;
  ASSERT_TRUE(campaign::run_points_campaign(points, seeds, options, &settled,
                                            &error))
      << error;
  EXPECT_EQ(invocations.load(), 0);
  EXPECT_EQ(settled.jobs_failed, 0u);
  EXPECT_EQ(settled.aggregates[1].runs, 3);
}

TEST(FaultCampaign, IsolateWithoutExecPathIsSpecError) {
  const std::vector<campaign::GridPoint> points = two_points();
  campaign::CampaignOptions options;
  options.fault.isolate = true;
  campaign::CampaignResult result;
  std::string error;
  EXPECT_FALSE(
      campaign::run_points_campaign(points, {1}, options, &result, &error));
  EXPECT_NE(error.find("executable"), std::string::npos);
  EXPECT_EQ(result.error_kind, campaign::CampaignErrorKind::kSpec);
}

TEST(FaultCampaign, FaultModeRejectsCustomRunFunctions) {
  const std::vector<campaign::GridPoint> points = two_points();
  campaign::CampaignOptions options;
  options.fault.isolate = true;
  options.fault.exec_path = "gt_campaign";  // rejected before any child starts
  options.runner.run_job_fn = [](const campaign::Job&) { return ExperimentResult{}; };
  campaign::CampaignResult result;
  std::string error;
  EXPECT_FALSE(
      campaign::run_points_campaign(points, {1}, options, &result, &error));
  EXPECT_NE(error.find("custom run function"), std::string::npos);
}

// -------------------------------------------------------------- envelope --

TEST(FaultEnvelope, RoundTripsEveryConfigFieldExactly) {
  campaign::JobEnvelope envelope;
  envelope.point_index = 7;
  envelope.seed_index = 3;
  envelope.label = "traffic_ppm=30 scheduler=\"quoted\"";
  ScenarioConfig& c = envelope.config;
  c.scheduler = "orchestra";
  c.topology = TopologyKind::kRandomDisk;
  c.dodag_count = 3;
  c.nodes_per_dodag = 9;
  c.hop_distance = 100.0 / 3.0;
  c.topology_nodes = 77;
  c.disk_radius = 123.456789012345678;
  c.topology_seed = 0xdeadbeefcafef00dull;
  c.radio_range = 41.999999999999993;
  c.interference_factor = 1.7;
  c.link_prr = 0.90000000000000002;
  c.traffic_ppm = 165.0;
  c.gt_slotframe_length = 64;
  c.orchestra_unicast_length = 16;
  c.orchestra_channel_hash = true;
  c.alice_unicast_length = 32;
  c.emsf_slotframe_length = 48;
  c.queue_capacity = 24;
  c.alpha = 4.0 / 3.0;
  c.beta = 0.1;
  c.gamma = 2.5;
  c.enforce_tx_margin = false;
  c.enforce_interleave = false;
  c.warmup = 123456789;
  c.measure = 987654321;
  c.drain = 11111111;
  c.trace_kind = TraceKind::kCrashloop;
  c.trace_seed = 42;
  c.trace_movers = 5;
  c.trace_fail_count = 2;
  c.trace_speed_mps = 1.5;
  c.trace_interval_s = 2.0 / 3.0;
  c.trace_fail_at_s = 250.5;
  c.trace_down_s = 30.25;
  c.trace_cycle_s = 120.75;
  c.trace = "examples/walk \"and\" fail.trace";
  c.seed = 0x123456789abcdef0ull;

  const std::string line = campaign::render_job_envelope(envelope);
  campaign::JobEnvelope parsed;
  std::string error;
  ASSERT_TRUE(campaign::parse_job_envelope(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.point_index, 7u);
  EXPECT_EQ(parsed.seed_index, 3u);
  EXPECT_EQ(parsed.label, envelope.label);
  // Whole-config equality: a member dropped by both the writer and the
  // parser would survive a re-render comparison, but not this one.
  EXPECT_EQ(parsed.config, c);
}

TEST(FaultEnvelope, RejectsMalformedInput) {
  campaign::JobEnvelope parsed;
  std::string error;
  EXPECT_FALSE(campaign::parse_job_envelope("", &parsed, &error));
  EXPECT_FALSE(campaign::parse_job_envelope("{\"point\": 0", &parsed, &error));
  EXPECT_FALSE(campaign::parse_job_envelope("not json at all", &parsed, &error));
  // Type checks: enum ordinal in range, u16 and int members that fit.
  for (const char* config :
       {R"({"topology": 4})", R"({"trace_kind": 5})", R"({"gt_slotframe_length": 65536})",
        R"({"dodag_count": 2147483648})", R"({"topology_seed": -1})"}) {
    const std::string line = std::string(R"({"config": )") + config + "}";
    EXPECT_FALSE(campaign::parse_job_envelope(line, &parsed, &error)) << config;
  }
  const std::string max_u16 = R"({"config": {"gt_slotframe_length": 65535}})";
  EXPECT_TRUE(campaign::parse_job_envelope(max_u16, &parsed, &error)) << error;
  EXPECT_EQ(parsed.config.gt_slotframe_length, 65535);
}

// -------------------------------------------------------------- protocol --

ScenarioConfig tiny_config() {
  ScenarioConfig c;
  c.dodag_count = 1;
  c.nodes_per_dodag = 4;
  c.warmup = 30_s;
  c.measure = 30_s;
  return c;
}

#if !defined(_WIN32)
// The child half of --isolate, exercised in-process via memory streams:
// its output record must be bit-identical to a direct run_scenario.
TEST(FaultProtocol, RunJobProtocolMatchesInProcessBitForBit) {
  campaign::JobEnvelope envelope;
  envelope.point_index = 0;
  envelope.seed_index = 2;
  envelope.label = "tiny";
  envelope.config = tiny_config();
  envelope.config.seed = 1034;

  std::string in_line = campaign::render_job_envelope(envelope);
  in_line += '\n';
  std::FILE* in = fmemopen(in_line.data(), in_line.size(), "r");
  ASSERT_NE(in, nullptr);
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  std::FILE* out = open_memstream(&out_buf, &out_len);
  ASSERT_NE(out, nullptr);

  EXPECT_EQ(campaign::run_job_protocol(in, out), 0);
  std::fclose(in);
  std::fclose(out);
  std::string out_line(out_buf, out_len);
  free(out_buf);
  while (!out_line.empty() && out_line.back() == '\n') out_line.pop_back();

  JournalRecord record;
  std::string error;
  ASSERT_TRUE(campaign::parse_journal_line(out_line, &record, &error)) << error;
  EXPECT_EQ(record.status, JobStatus::kOk);
  EXPECT_EQ(record.point_index, 0u);
  EXPECT_EQ(record.seed_index, 2u);

  const ExperimentResult direct = run_scenario(envelope.config);
  JournalRecord expected = record;
  expected.result = direct;
  EXPECT_EQ(campaign::render_journal_line(record),
            campaign::render_journal_line(expected));
}

TEST(FaultProtocol, RunJobProtocolRejectsGarbageEnvelope) {
  std::string in_line = "this is not an envelope\n";
  std::FILE* in = fmemopen(in_line.data(), in_line.size(), "r");
  ASSERT_NE(in, nullptr);
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  std::FILE* out = open_memstream(&out_buf, &out_len);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(campaign::run_job_protocol(in, out), 2);
  std::fclose(in);
  std::fclose(out);
  free(out_buf);
}
#endif  // !_WIN32

}  // namespace
}  // namespace gttsch
