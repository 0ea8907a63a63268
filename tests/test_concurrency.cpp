// Worker-count resolution (util/concurrency): the pure rules behind
// GTTSCH_JOBS and the campaign runner's --jobs.
#include "util/concurrency.hpp"

#include <gtest/gtest.h>

namespace gttsch {
namespace {

TEST(ResolveWorkerCount, ExplicitRequestWinsOverEverything) {
  EXPECT_EQ(resolve_worker_count(4, 16, "8"), 4);
  EXPECT_EQ(resolve_worker_count(1, 0, nullptr), 1);
}

TEST(ResolveWorkerCount, EnvOverrideWinsOverHardware) {
  EXPECT_EQ(resolve_worker_count(0, 16, "3"), 3);
}

TEST(ResolveWorkerCount, MalformedEnvFallsThroughToHardware) {
  EXPECT_EQ(resolve_worker_count(0, 8, "zero"), 8);
  EXPECT_EQ(resolve_worker_count(0, 8, "-2"), 8);
  EXPECT_EQ(resolve_worker_count(0, 8, "0"), 8);
}

TEST(ResolveWorkerCount, ZeroHardwareReportClampsToOneWorker) {
  // The standard permits hardware_concurrency() == 0 ("not computable").
  // The campaign runner used to trust it and would spawn zero workers —
  // the pool would be created empty and no job would ever run.
  EXPECT_EQ(resolve_worker_count(0, 0, nullptr), 1);
  EXPECT_EQ(resolve_worker_count(0, 0, "bogus"), 1);
}

TEST(ResolveWorkerCount, DefaultWorkerCountNeverReturnsZero) {
  // Whatever this machine reports, the live wrapper obeys the same floor.
  EXPECT_GE(default_worker_count(), 1);
  EXPECT_EQ(default_worker_count(7), 7);
}

}  // namespace
}  // namespace gttsch
