#include <gtest/gtest.h>

#include "reliability/markov_sim.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

// Tier-1 smoke for the parallel simulation engine (ctest label
// `perf_smoke`): a tiny reliability sim on the shared pool, so the pool +
// ParallelFor + per-trial RNG plumbing is exercised on every test run
// whose pool has more than one worker (the TSan CI job pins
// FTMS_THREADS=4), not only when someone runs the benches.

TEST(PerfSmokeTest, ParallelReliabilitySimRuns) {
  ReliabilitySimConfig config;
  config.num_disks = 20;
  config.parity_group_size = 5;
  config.mttf_hours = 500.0;
  config.mttr_hours = 5.0;
  config.trials = 64;
  // Any value above 1 selects the shared pool, whose worker count is
  // DefaultThreadCount(): this dispatches to workers only when that count
  // is above 1 (FTMS_THREADS, else the host's CPUs) and runs inline on a
  // 1-CPU host with FTMS_THREADS unset.
  config.threads = 4;
  const ReliabilityEstimate est = EstimateMttfCatastrophic(config).value();
  EXPECT_EQ(est.trials, config.trials);
  EXPECT_GT(est.mean_hours, 0);
  EXPECT_GT(est.ci95_hours, 0);

  // And the same workload through the default-thread path (FTMS_THREADS /
  // hardware concurrency) must give the same bits.
  ReliabilitySimConfig defaulted = config;
  defaulted.threads = 0;
  EXPECT_EQ(EstimateMttfCatastrophic(defaulted)->mean_hours,
            est.mean_hours);
}

}  // namespace
}  // namespace ftms
