// The trace subsystem's contract: strict parsing (every malformed line
// rejected with its line number), lossless format/parse round trips,
// deterministic synthetic generators, and a TracePlayer that applies
// moves and failures to a live network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "phy/dynamic_link.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace gttsch {
namespace {

using namespace literals;

// ---------------------------------------------------------------- parser --

TEST(TraceParser, ParsesEventsCommentsAndBlankLines) {
  const std::string text =
      "# a comment line\n"
      "\n"
      "10 move 3 12.5 -7.25   # trailing comment\n"
      "10 fail 4\n"
      "12.000001 move 3 13 -7\n";
  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &trace, &error)) << error;
  ASSERT_EQ(trace.events.size(), 3u);

  EXPECT_EQ(trace.events[0].at, 10_s);
  EXPECT_EQ(trace.events[0].kind, TraceEventKind::kMove);
  EXPECT_EQ(trace.events[0].node, 3);
  EXPECT_DOUBLE_EQ(trace.events[0].pos.x, 12.5);
  EXPECT_DOUBLE_EQ(trace.events[0].pos.y, -7.25);
  EXPECT_EQ(trace.events[0].line, 3);

  EXPECT_EQ(trace.events[1].kind, TraceEventKind::kFail);
  EXPECT_EQ(trace.events[1].node, 4);
  EXPECT_EQ(trace.events[1].at, 10_s);

  EXPECT_EQ(trace.events[2].at, 12_s + 1);  // microsecond-exact timestamps
  EXPECT_TRUE(trace.has_failures());
}

TEST(TraceParser, ParsesGrammarV2LifecycleAndLinkEvents) {
  const std::string text =
      "10 fail 4\n"
      "15 revive 4\n"
      "20 prr 2 5 0.25\n"
      "25 pause 2 5\n"
      "30 resume 2 5\n";
  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &trace, &error)) << error;
  ASSERT_EQ(trace.events.size(), 5u);

  EXPECT_EQ(trace.events[1].kind, TraceEventKind::kRevive);
  EXPECT_EQ(trace.events[1].node, 4);
  EXPECT_EQ(trace.events[1].at, 15_s);

  EXPECT_EQ(trace.events[2].kind, TraceEventKind::kPrr);
  EXPECT_EQ(trace.events[2].node, 2);
  EXPECT_EQ(trace.events[2].peer, 5);
  EXPECT_DOUBLE_EQ(trace.events[2].value, 0.25);

  EXPECT_EQ(trace.events[3].kind, TraceEventKind::kPause);
  EXPECT_EQ(trace.events[4].kind, TraceEventKind::kResume);
  EXPECT_EQ(trace.events[4].peer, 5);
  EXPECT_TRUE(trace.has_failures());
  EXPECT_TRUE(trace.needs_dynamic_model());
}

/// Every rejection must carry the 1-based number of the offending line.
struct BadTraceCase {
  const char* name;
  const char* text;
  const char* expect_in_error;
  int line;
};

class TraceParserRejects : public ::testing::TestWithParam<BadTraceCase> {};

TEST_P(TraceParserRejects, WithLineNumber) {
  const BadTraceCase& c = GetParam();
  Trace trace;
  std::string error;
  EXPECT_FALSE(parse_trace(c.text, &trace, &error)) << c.name;
  EXPECT_NE(error.find("line " + std::to_string(c.line)), std::string::npos)
      << c.name << ": error was '" << error << "'";
  EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
      << c.name << ": error was '" << error << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceParserRejects,
    ::testing::Values(
        BadTraceCase{"malformed keyword", "5 wiggle 3 1 2\n", "unknown event", 1},
        BadTraceCase{"bare word", "# ok\nnonsense\n", "expected", 2},
        BadTraceCase{"move arity", "5 move 3 1\n", "move takes exactly", 1},
        BadTraceCase{"fail arity", "5 fail 3 9\n", "fail takes exactly", 1},
        BadTraceCase{"bad timestamp", "abc move 3 1 2\n", "bad timestamp", 1},
        BadTraceCase{"negative timestamp", "-5 move 3 1 2\n", "bad timestamp", 1},
        BadTraceCase{"huge timestamp", "1e12 move 3 1 2\n", "bad timestamp", 1},
        BadTraceCase{"non-monotonic", "10 move 3 1 2\n9 move 3 1 2\n",
                     "goes backwards", 2},
        BadTraceCase{"bad node id", "5 move abc 1 2\n", "bad node id", 1},
        BadTraceCase{"reserved node id", "5 fail 65535\n", "bad node id", 1},
        BadTraceCase{"bad coordinate", "5 move 3 east 2\n", "coordinate", 1},
        BadTraceCase{"out-of-range coordinate", "5 move 3 1 2e7\n", "coordinate", 1},
        BadTraceCase{"nan coordinate", "5 move 3 nan 2\n", "coordinate", 1},
        BadTraceCase{"move after fail", "5 fail 3\n9 move 3 1 2\n",
                     "already failed", 2},
        BadTraceCase{"double fail", "5 fail 3\n9 fail 3\n", "already failed", 2},
        BadTraceCase{"revive arity", "5 fail 3\n9 revive 3 7\n",
                     "revive takes exactly", 2},
        BadTraceCase{"revive without fail", "5 revive 3\n", "without a prior fail",
                     1},
        BadTraceCase{"revive not after fail", "5 fail 3\n5 revive 3\n",
                     "strictly after the failure on line 1", 2},
        BadTraceCase{"double revive", "5 fail 3\n9 revive 3\n10 revive 3\n",
                     "without a prior fail", 3},
        BadTraceCase{"prr arity", "5 prr 2 3\n", "prr takes exactly", 1},
        BadTraceCase{"prr value too large", "5 prr 2 3 1.5\n",
                     "not a number in [0, 1]", 1},
        BadTraceCase{"prr value negative", "5 prr 2 3 -0.1\n",
                     "not a number in [0, 1]", 1},
        BadTraceCase{"prr value nan", "5 prr 2 3 nan\n", "not a number in [0, 1]",
                     1},
        BadTraceCase{"prr self link", "5 prr 3 3 0.5\n",
                     "link endpoints must differ", 1},
        BadTraceCase{"prr on dead node", "5 fail 3\n9 prr 3 4 0.5\n",
                     "already failed", 2},
        BadTraceCase{"prr on dead peer", "5 fail 4\n9 prr 3 4 0.5\n",
                     "already failed", 2},
        BadTraceCase{"pause arity", "5 pause 2\n", "pause takes exactly", 1},
        BadTraceCase{"pause self link", "5 pause 3 3\n",
                     "link endpoints must differ", 1},
        BadTraceCase{"double pause", "5 pause 2 3\n9 pause 3 2\n",
                     "already paused on line 1", 2},
        BadTraceCase{"pause on dead node", "5 fail 2\n9 pause 2 3\n",
                     "already failed", 2},
        BadTraceCase{"resume arity", "5 resume 2 3 4\n", "resume takes exactly",
                     1},
        BadTraceCase{"resume without pause", "5 resume 2 3\n",
                     "without a matching pause", 1},
        BadTraceCase{"double resume", "5 pause 2 3\n9 resume 2 3\n10 resume 2 3\n",
                     "without a matching pause", 3}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& ch : name)
        if (ch == ' ' || ch == '-') ch = '_';
      return name;
    });

TEST(TraceParser, CrlfLineEndingsParseIdenticallyToLf) {
  Trace lf, crlf;
  std::string error;
  ASSERT_TRUE(parse_trace("10 move 3 1.5 2\n10 fail 4\n", &lf, &error)) << error;
  ASSERT_TRUE(parse_trace("10 move 3 1.5 2\r\n10 fail 4\r\n", &crlf, &error)) << error;
  ASSERT_EQ(crlf.events.size(), lf.events.size());
  for (std::size_t i = 0; i < lf.events.size(); ++i) {
    EXPECT_TRUE(lf.events[i] == crlf.events[i]) << "event " << i;
  }
}

TEST(TraceParser, UnknownNodeRejectedAgainstTopology) {
  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace("5 move 9 1 2\n", &trace, &error)) << error;

  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {0, 30}, false});
  EXPECT_FALSE(validate_trace_nodes(trace, topo, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown node id 9"), std::string::npos) << error;
}

TEST(TraceParser, MissingFileNamesThePath) {
  // A directory is no trace file either (it must not read as an empty one).
  const std::string paths[] = {"/no/such/file.trace", ::testing::TempDir()};
  for (const std::string& path : paths) {
    Trace trace;
    std::string error;
    EXPECT_FALSE(load_trace(path, &trace, &error)) << path;
    EXPECT_NE(error.find("cannot read trace file '" + path + "'"), std::string::npos)
        << error;
  }
}

/// The numeric-field rule as strtod states it, kept as the oracle for the
/// parser's own number scanning: restricted charset, full consumption, no
/// ERANGE (so no overflow and no subnormal or underflowed result), finite.
bool strtod_oracle(const std::string& text, double* out) {
  if (text.empty() || text.find_first_not_of("0123456789.+-eE") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(TraceParser, NumericFieldsMatchStrtodOracle) {
  std::vector<std::string> corpus = {
      "+1.5", "-0", ".5", "5.", "1E+5", "+.5e-3", "1e", "1e+", "+-1", "--1", "++1",
      "-+1", "+", "-", ".", "e5", "1.2.3", "1e5e5", "0", "0.0", "00012.500", "1e-310",
      "4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
      "2.2250738585072013e-308", "2.2250738585072014e-308", "1e-400", "-1e-400",
      "0e-400", "0e99999999999999999999", "1e-99999999999999999999",
      "1e99999999999999999999", "1e400", "1.7976931348623157e308",
      // Either side of DBL_MIN - 2^-1076, below which a value that rounds
      // to DBL_MIN still counts as tiny, and of DBL_MAX + half an ulp.
      "2.2250738585072012595738212570207680200770177e-308",
      "2.2250738585072012595738212570207680200770178e-308",
      "1.797693134862315807937289714053034150799e308",
      "1.797693134862315807937289714053034150800e308",
      "1.7976931348623158e308", "1.7976931348623159e308", "0x1p3", "0X1P3", "inf", "-inf",
      "+inf", "INF", "infinity", "-Infinity", "nan", "+nan", "-nan", "NaN", "nan(12)",
      "1,5", "1_000", "1e5f", "1.5d", "1e9", "1000000000.0000001", "1e6", "1000000.0000000001",
      "0.1000000000000000055511151231257827021181583404541015625",
      "1.00000000000000011102230246251565404236316680908203125",
      "123456789012345678901234567890", "0.999999999999999999999999",
      g17(DBL_MIN), g17(std::nextafter(DBL_MIN, 0.0)), g17(std::nextafter(DBL_MIN, 1.0)),
      g17(-DBL_MIN), g17(std::numeric_limits<double>::denorm_min()), g17(DBL_MAX)};
  // %.17g spellings of every exponent range (raw bit patterns, so also
  // subnormals, inf and nan), and of values in and around each field's range.
  Rng rng(2024);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    corpus.push_back(g17(v));
  }
  for (int i = 0; i < 1000; ++i) corpus.push_back(g17(rng.uniform_double(-1.5e6, 1.5e6)));
  for (int i = 0; i < 1000; ++i) corpus.push_back(g17(rng.uniform_double(-0.2, 1.2)));
  for (int i = 0; i < 1000; ++i) corpus.push_back(g17(rng.uniform_double(0.0, 1.2e9)));
  for (int i = 0; i < 500; ++i) {
    const int shift = static_cast<int>(rng.uniform(53));
    corpus.push_back(g17(std::ldexp(rng.uniform_double(), -1022 - shift)));  // subnormal
  }

  int accepted = 0;
  for (const std::string& s : corpus) {
    SCOPED_TRACE("field '" + s + "'");
    double v = 0;
    const bool ok = strtod_oracle(s, &v);
    Trace trace;
    std::string error;

    const bool t_ok = ok && v >= 0 && v <= kMaxTraceSeconds;
    ASSERT_EQ(parse_trace(s + " fail 3\n", &trace, &error), t_ok) << error;
    if (t_ok) {
      EXPECT_EQ(trace.events[0].at, static_cast<TimeUs>(std::llround(v * 1e6)));
    }

    const bool c_ok = ok && std::abs(v) <= kMaxTraceCoordinate;
    ASSERT_EQ(parse_trace("1 move 3 " + s + " 0\n", &trace, &error), c_ok) << error;
    if (c_ok) {
      EXPECT_TRUE(same_bits(trace.events[0].pos.x, v));
    }

    const bool p_ok = ok && v >= 0.0 && v <= 1.0;
    ASSERT_EQ(parse_trace("1 prr 1 2 " + s + "\n", &trace, &error), p_ok) << error;
    if (p_ok) {
      EXPECT_TRUE(same_bits(trace.events[0].value, v));
    }
    accepted += ok ? 1 : 0;
  }
  // Both outcomes are well represented, so neither side passes vacuously.
  EXPECT_GT(accepted, 2500);
  EXPECT_GT(static_cast<int>(corpus.size()) - accepted, 500);
}

// ------------------------------------------------------------ round trip --

ScenarioConfig generator_config(TraceKind kind) {
  ScenarioConfig sc;
  sc.dodag_count = 2;
  sc.nodes_per_dodag = 7;
  sc.warmup = 60_s;
  sc.measure = 120_s;
  sc.trace_kind = kind;
  sc.trace_seed = 7;
  sc.trace_movers = 4;
  sc.trace_speed_mps = 2.0;
  sc.trace_interval_s = 3.0;
  sc.trace_fail_count = 2;
  sc.trace_fail_at_s = 100.0;
  return sc;
}

class TraceGenerators : public ::testing::TestWithParam<TraceKind> {};

TEST_P(TraceGenerators, FormatParseRoundTripIsLossless) {
  const ScenarioConfig sc = generator_config(GetParam());
  Trace trace;
  std::string error;
  ASSERT_TRUE(sc.make_trace(sc.make_topology(), &trace, &error)) << error;
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(trace.has_failures());

  Trace reparsed;
  ASSERT_TRUE(parse_trace(format_trace(trace), &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event " << i);
    EXPECT_TRUE(trace.events[i] == reparsed.events[i]);
  }
}

TEST_P(TraceGenerators, SameSeedSameStreamDifferentSeedDiverges) {
  const ScenarioConfig sc = generator_config(GetParam());
  const TopologySpec topo = sc.make_topology();
  Trace a, b;
  std::string error;
  ASSERT_TRUE(sc.make_trace(topo, &a, &error)) << error;
  ASSERT_TRUE(sc.make_trace(topo, &b, &error)) << error;
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i;
  }

  ScenarioConfig other = sc;
  other.trace_seed = 8;
  Trace c;
  ASSERT_TRUE(other.make_trace(topo, &c, &error)) << error;
  bool any_difference = c.events.size() != a.events.size();
  for (std::size_t i = 0; !any_difference && i < a.events.size(); ++i) {
    any_difference = !(a.events[i] == c.events[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST_P(TraceGenerators, EventsStayInWindowAndRespectFailures) {
  const ScenarioConfig sc = generator_config(GetParam());
  Trace trace;
  std::string error;
  ASSERT_TRUE(sc.make_trace(sc.make_topology(), &trace, &error)) << error;

  std::map<NodeId, TimeUs> failed_at;
  TimeUs last = 0;
  int fails = 0;
  for (const TraceEvent& e : trace.events) {
    EXPECT_GE(e.at, last);  // time-ordered
    last = e.at;
    EXPECT_GT(e.at, sc.warmup);
    EXPECT_LT(e.at, sc.warmup + sc.measure);
    const auto dead = failed_at.find(e.node);
    if (e.kind == TraceEventKind::kRevive) {
      if (dead == failed_at.end()) {
        ADD_FAILURE() << "revive of live node " << e.node;
      } else {
        EXPECT_GT(e.at, dead->second);  // strictly after the failure
        failed_at.erase(dead);
      }
      continue;
    }
    if (dead != failed_at.end()) {
      ADD_FAILURE() << "event for node " << e.node << " after its failure";
    }
    if (e.kind == TraceEventKind::kFail) {
      failed_at[e.node] = e.at;
      ++fails;
    }
  }
  // Walk/waypoint kill each victim exactly once; crashloop re-crashes on
  // every cycle, so it can only produce more failures, never fewer.
  if (GetParam() == TraceKind::kCrashloop) {
    EXPECT_GE(fails, sc.trace_fail_count);
  } else {
    EXPECT_EQ(fails, sc.trace_fail_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TraceGenerators,
                         ::testing::Values(TraceKind::kRandomWalk,
                                           TraceKind::kRandomWaypoint,
                                           TraceKind::kCrashloop),
                         [](const auto& info) {
                           switch (info.param) {
                             case TraceKind::kRandomWalk: return "random_walk";
                             case TraceKind::kRandomWaypoint:
                               return "random_waypoint";
                             default: return "crashloop";
                           }
                         });

TEST(TraceGenerator, WaypointStepsBoundedBySpeedTimesInterval) {
  const ScenarioConfig sc = generator_config(TraceKind::kRandomWaypoint);
  Trace trace;
  std::string error;
  ASSERT_TRUE(sc.make_trace(sc.make_topology(), &trace, &error)) << error;
  std::map<NodeId, Position> last;
  const double bound = sc.trace_speed_mps * sc.trace_interval_s * (1 + 1e-9);
  for (const TraceEvent& e : trace.events) {
    if (e.kind != TraceEventKind::kMove) continue;
    const auto prev = last.find(e.node);
    if (prev != last.end()) {
      const double dx = e.pos.x - prev->second.x;
      const double dy = e.pos.y - prev->second.y;
      EXPECT_LE(dx * dx + dy * dy, bound * bound);
    }
    last[e.node] = e.pos;
  }
}

TEST(TraceGenerator, CrashloopAlternatesFailReviveWithConfiguredTiming) {
  ScenarioConfig sc = generator_config(TraceKind::kCrashloop);
  sc.trace_down_s = 10.0;
  sc.trace_cycle_s = 30.0;
  Trace trace;
  std::string error;
  ASSERT_TRUE(sc.make_trace(sc.make_topology(), &trace, &error)) << error;
  ASSERT_FALSE(trace.empty());

  const TimeUs down_us = 10_s;
  const TimeUs cycle_us = 30_s;
  const TimeUs end = sc.warmup + sc.measure;
  // Per node the stream must read fail, revive, fail, revive, ... with
  // revive = fail + down and the next fail one cycle after the previous.
  std::map<NodeId, std::vector<TraceEvent>> per_node;
  for (const TraceEvent& e : trace.events) {
    EXPECT_TRUE(e.kind == TraceEventKind::kFail ||
                e.kind == TraceEventKind::kRevive)
        << "crashloop generated a non-lifecycle event";
    EXPECT_LT(e.at, end);
    per_node[e.node].push_back(e);
  }
  EXPECT_EQ(per_node.size(), static_cast<std::size_t>(sc.trace_fail_count));
  for (const auto& [id, events] : per_node) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    ASSERT_GE(events.size(), 2u);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const bool expect_fail = i % 2 == 0;
      EXPECT_EQ(events[i].kind, expect_fail ? TraceEventKind::kFail
                                            : TraceEventKind::kRevive);
      if (i == 0) continue;
      if (expect_fail) {
        EXPECT_EQ(events[i].at, events[i - 2].at + cycle_us);
      } else {
        EXPECT_EQ(events[i].at, events[i - 1].at + down_us);
      }
    }
  }
}

// ----------------------------------------------------- config validation --

TEST(TraceConfig, FileKindWithoutPathIsRejected) {
  ScenarioConfig sc;
  sc.trace_kind = TraceKind::kFile;
  std::string error;
  EXPECT_FALSE(sc.validate_trace(&error));
  EXPECT_NE(error.find("trace=PATH"), std::string::npos) << error;
}

TEST(TraceConfig, BadGeneratorParamsAreRejected) {
  ScenarioConfig sc;
  sc.trace_kind = TraceKind::kRandomWalk;
  sc.trace_interval_s = 0.0;
  std::string error;
  EXPECT_FALSE(sc.validate_trace(&error));
  EXPECT_NE(error.find("trace_interval_s"), std::string::npos) << error;

  sc.trace_interval_s = 2.0;
  sc.trace_movers = -1;
  EXPECT_FALSE(sc.validate_trace(&error));
  EXPECT_NE(error.find("trace_movers"), std::string::npos) << error;
}

TEST(TraceConfig, BadCrashloopParamsAreRejected) {
  ScenarioConfig sc;
  sc.trace_kind = TraceKind::kCrashloop;
  sc.trace_down_s = 0.0;
  std::string error;
  EXPECT_FALSE(sc.validate_trace(&error));
  EXPECT_NE(error.find("trace_down_s"), std::string::npos) << error;

  sc.trace_down_s = 40.0;
  sc.trace_cycle_s = 40.0;  // must strictly exceed the down time
  EXPECT_FALSE(sc.validate_trace(&error));
  EXPECT_NE(error.find("trace_cycle_s must exceed trace_down_s"),
            std::string::npos)
      << error;
}

TEST(TraceConfig, NoneKindIsAlwaysValidAndEmpty) {
  ScenarioConfig sc;  // defaults: kNone
  std::string error;
  EXPECT_TRUE(sc.validate_trace(&error));
  Trace trace;
  ASSERT_TRUE(sc.make_trace(sc.make_topology(), &trace, &error)) << error;
  EXPECT_TRUE(trace.empty());
}

// ----------------------------------------------------------- trace player --

TEST(TracePlayerTest, AppliesMovesAndFailuresAtTheirInstants) {
  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {0, 30}, false});
  topo.nodes.push_back(NodeSpec{3, {0, -30}, false});

  ScenarioConfig sc;
  auto nc = sc.make_node_config();
  DynamicLinkModel* model = nullptr;
  const Network::LinkModelFactory factory =
      [&model](Simulator& sim) -> std::unique_ptr<LinkModel> {
    auto dynamic = std::make_unique<DynamicLinkModel>(
        sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6));
    model = dynamic.get();
    return dynamic;
  };
  Network net(1, factory, topo, nc, nullptr);

  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace("10 move 2 5 25\n20 fail 3\n", &trace, &error)) << error;
  TracePlayer player(net, std::move(trace), model);
  net.start();
  player.start();

  net.sim().run_until(9_s);
  EXPECT_DOUBLE_EQ(net.node(2).position().x, 0.0);
  EXPECT_FALSE(net.node(3).failed());

  net.sim().run_until(15_s);
  EXPECT_DOUBLE_EQ(net.node(2).position().x, 5.0);
  EXPECT_DOUBLE_EQ(net.node(2).position().y, 25.0);
  EXPECT_EQ(player.applied(), 1u);

  net.sim().run_until(25_s);
  EXPECT_TRUE(net.node(3).failed());
  EXPECT_EQ(player.applied(), 2u);
  // The kill also silences the node at the medium level.
  EXPECT_DOUBLE_EQ(model->prr(3, {0, -30}, 1, {0, 0}), 0.0);
}

TEST(TracePlayerTest, AppliesRevivesAndLinkEpisodes) {
  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {0, 30}, false});
  topo.nodes.push_back(NodeSpec{3, {0, -30}, false});

  ScenarioConfig sc;
  auto nc = sc.make_node_config();
  DynamicLinkModel* model = nullptr;
  const Network::LinkModelFactory factory =
      [&model](Simulator& sim) -> std::unique_ptr<LinkModel> {
    auto dynamic = std::make_unique<DynamicLinkModel>(
        sim, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6));
    model = dynamic.get();
    return dynamic;
  };
  Network net(1, factory, topo, nc, nullptr);

  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace(
                  "10 fail 2\n"
                  "20 revive 2\n"
                  "30 prr 1 2 0.25\n"
                  "40 pause 1 3\n"
                  "50 prr 1 2 1\n"
                  "60 resume 1 3\n",
                  &trace, &error))
      << error;
  TracePlayer player(net, std::move(trace), model);
  net.start();
  player.start();

  const Position p1{0, 0}, p2{0, 30}, p3{0, -30};

  net.sim().run_until(15_s);  // node 2 is down and radio-silent
  EXPECT_TRUE(net.node(2).failed());
  EXPECT_DOUBLE_EQ(model->prr(2, p2, 1, p1), 0.0);

  net.sim().run_until(25_s);  // ...and back, with the base link restored
  EXPECT_FALSE(net.node(2).failed());
  EXPECT_DOUBLE_EQ(model->prr(2, p2, 1, p1), 1.0);
  EXPECT_EQ(player.applied(), 2u);

  net.sim().run_until(35_s);  // prr override is directional: only 1 -> 2 fades
  EXPECT_DOUBLE_EQ(model->prr(1, p1, 2, p2), 0.25);
  EXPECT_DOUBLE_EQ(model->prr(2, p2, 1, p1), 1.0);

  net.sim().run_until(45_s);  // pause blacks out both directions of 1 <-> 3
  EXPECT_DOUBLE_EQ(model->prr(1, p1, 3, p3), 0.0);
  EXPECT_DOUBLE_EQ(model->prr(3, p3, 1, p1), 0.0);

  net.sim().run_until(55_s);  // prr 1 restores full delivery on 1 -> 2
  EXPECT_DOUBLE_EQ(model->prr(1, p1, 2, p2), 1.0);

  net.sim().run_until(65_s);  // resume lifts the blackout
  EXPECT_DOUBLE_EQ(model->prr(1, p1, 3, p3), 1.0);
  EXPECT_DOUBLE_EQ(model->prr(3, p3, 1, p1), 1.0);
  EXPECT_EQ(player.applied(), 6u);
}

// ------------------------------------------------------ file round trips --

TEST(TraceFile, SaveLoadRoundTrip) {
  const ScenarioConfig sc = generator_config(TraceKind::kRandomWalk);
  Trace trace;
  std::string error;
  ASSERT_TRUE(sc.make_trace(sc.make_topology(), &trace, &error)) << error;

  const std::string path = ::testing::TempDir() + "roundtrip.trace";
  ASSERT_TRUE(save_trace(path, trace, &error)) << error;
  Trace loaded;
  ASSERT_TRUE(load_trace(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_TRUE(trace.events[i] == loaded.events[i]) << "event " << i;
  }
}

/// A trace shaped like perfbench's dynamic-100 file: a 100-node random disk,
/// 20 random-walk movers merged with 10 crashloop nodes over 600-1800 s
/// (about 12k lines). One seed for both generators makes the movers (front
/// of the shuffled node order) and the crashers (its back) disjoint.
Trace dynamic100_shaped_trace(const TopologySpec& topo) {
  TraceGenParams walk;
  walk.seed = 11;
  walk.movers = 20;
  walk.speed_mps = 2.5;
  walk.interval_s = 2.0;
  walk.start = 600_s;
  walk.end = 1800_s;
  TraceGenParams crash = walk;
  crash.movers = 0;
  crash.fail_count = 10;
  crash.fail_at_s = 660.0;
  Trace trace = generate_trace(TraceKind::kCrashloop, topo, crash);
  const Trace moves = generate_trace(TraceKind::kRandomWalk, topo, walk);
  trace.events.insert(trace.events.end(), moves.events.begin(), moves.events.end());
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  return trace;
}

void expect_same_events(const Trace& expected, const Trace& actual) {
  ASSERT_EQ(actual.events.size(), expected.events.size());
  for (std::size_t i = 0; i < expected.events.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event " << i);
    EXPECT_TRUE(expected.events[i] == actual.events[i]);
    EXPECT_EQ(actual.events[i].line, static_cast<int>(i) + 1);
  }
}

TEST(TraceFile, Dynamic100ShapedRoundTripAtVolume) {
  ScenarioConfig sc;
  sc.topology = TopologyKind::kRandomDisk;
  sc.topology_nodes = 100;
  sc.disk_radius = 150.0;
  const Trace trace = dynamic100_shaped_trace(sc.make_topology());
  ASSERT_GT(trace.events.size(), 12000u);
  const std::string text = format_trace(trace);

  Trace parsed;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &parsed, &error)) << error;
  expect_same_events(trace, parsed);

  const std::string path = ::testing::TempDir() + "dynamic100_shaped.trace";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << text;
    ASSERT_TRUE(file.good());
  }
  Trace loaded;
  ASSERT_TRUE(load_trace(path, &loaded, &error)) << error;
  expect_same_events(trace, loaded);

  std::string crlf, commented;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = text.find('\n', start);
    const std::string line = text.substr(start, nl - start);
    crlf += line + "\r\n";
    commented += line + "  # note " + std::to_string(start) + "\n";
    start = nl + 1;
  }
  Trace from_crlf, from_commented;
  ASSERT_TRUE(parse_trace(crlf, &from_crlf, &error)) << error;
  expect_same_events(trace, from_crlf);
  ASSERT_TRUE(parse_trace(commented, &from_commented, &error)) << error;
  expect_same_events(trace, from_commented);
}

// The abort names the id the network lacks, also when it is a link's peer.
TEST(TracePlayerDeathTest, UnknownPeerIsNamedInTheAbort) {
  TopologySpec topo;
  topo.nodes.push_back(NodeSpec{1, {0, 0}, true});
  topo.nodes.push_back(NodeSpec{2, {0, 30}, false});
  ScenarioConfig sc;
  Network net(1, std::make_unique<UnitDiskModel>(40.0, 1.0, 1.6), topo,
              sc.make_node_config(), nullptr);
  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace("10 prr 2 9 0.5\n", &trace, &error)) << error;
  TracePlayer player(net, std::move(trace));
  EXPECT_DEATH(player.start(), "line 1: unknown node id 9");
}

}  // namespace
}  // namespace gttsch
