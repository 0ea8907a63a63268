// Unit tests for util: RNG determinism/distribution, tables, flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace gttsch {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(9), b(9);
  Rng fa = a.fork(5), fb = b.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, UniformBoundRespected) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformZeroBound) {
  Rng r(3);
  EXPECT_EQ(r.uniform(0), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng r(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(TimeLiterals, Conversions) {
  using namespace literals;
  EXPECT_EQ(1_s, 1000000);
  EXPECT_EQ(15_ms, 15000);
  EXPECT_EQ(2_min, 120000000);
  EXPECT_DOUBLE_EQ(us_to_ms(1500), 1.5);
  EXPECT_DOUBLE_EQ(us_to_s(2500000), 2.5);
  EXPECT_DOUBLE_EQ(us_to_min(90000000), 1.5);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"long-name", "2.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(static_cast<std::int64_t>(42)), "42");
  EXPECT_EQ(TablePrinter::num(99.5, 0), "100");
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  // Space-form flags consume the next non-flag token, so a bare boolean
  // flag must come last (or use --flag=true).
  const char* argv[] = {"prog", "--alpha=2.5", "--name", "abc", "pos", "--flag"};
  Flags f(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(f.get("name", ""), "abc");
  EXPECT_TRUE(f.get_bool("flag", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f(1, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(f.get_bool("b", false));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, UnknownTracking) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Flags f(3, const_cast<char**>(argv));
  (void)f.get_int("used", 0);
  const auto unknown = f.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Flags, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

/// Parses `--name=value` and reads it with `get`, which must exit.
template <typename Get>
void read_flag(const char* arg, Get get) {
  const char* argv[] = {"prog", arg};
  const Flags f(2, const_cast<char**>(argv));
  get(f);
}

TEST(Flags, MalformedIntExits2) {
  // The prefix of the value used to be taken: "abc" read as 0, "6o" as 6.
  const auto get = [](const Flags& f) { (void)f.get_int("nodes", 7); };
  EXPECT_EXIT(read_flag("--nodes=abc", get), ::testing::ExitedWithCode(2),
              "--nodes: \"abc\" is not an integer");
  EXPECT_EXIT(read_flag("--nodes=6o", get), ::testing::ExitedWithCode(2), "\"6o\"");
  EXPECT_EXIT(read_flag("--nodes=", get), ::testing::ExitedWithCode(2), "\"\"");
  EXPECT_EXIT(read_flag("--nodes=99999999999999999999", get),
              ::testing::ExitedWithCode(2), "is not an integer");
}

TEST(Flags, MalformedOrNonFiniteDoubleExits2) {
  const auto get = [](const Flags& f) { (void)f.get_double("ppm", 60.0); };
  EXPECT_EXIT(read_flag("--ppm=6o", get), ::testing::ExitedWithCode(2),
              "--ppm: \"6o\" is not a finite number");
  EXPECT_EXIT(read_flag("--ppm=abc", get), ::testing::ExitedWithCode(2), "\"abc\"");
  EXPECT_EXIT(read_flag("--ppm=inf", get), ::testing::ExitedWithCode(2), "\"inf\"");
  EXPECT_EXIT(read_flag("--ppm=nan", get), ::testing::ExitedWithCode(2), "\"nan\"");
}

TEST(Flags, UnknownBoolWordExits2) {
  // Any word but the four "true" spellings used to read as false.
  const auto get = [](const Flags& f) { (void)f.get_bool("quiet", false); };
  EXPECT_EXIT(read_flag("--quiet=maybe", get), ::testing::ExitedWithCode(2),
              "--quiet: \"maybe\" is not one of");
  EXPECT_EXIT(read_flag("--quiet=", get), ::testing::ExitedWithCode(2), "\"\"");
}

TEST(Flags, WholeNumbersParse) {
  const char* argv[] = {"prog", "--n=-42", "--x=1.5e3", "--y=.25"};
  const Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("n", 0), -42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0.0), 1500.0);
  EXPECT_DOUBLE_EQ(f.get_double("y", 0.0), 0.25);
}

}  // namespace
}  // namespace gttsch
