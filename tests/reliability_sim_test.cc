#include "reliability/markov_sim.h"

#include <gtest/gtest.h>

#include "model/reliability_model.h"
#include "reliability/birth_death.h"
#include "reliability/failure_process.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace ftms {
namespace {

// Monte-Carlo runs use scaled-down MTTF/MTTR so the rare events are
// observable; the closed forms are exact in the MTTR/MTTF -> 0 limit, so
// we allow a generous (but bounded) tolerance.

TEST(ReliabilitySimTest, ClusteredCatastropheMatchesEquation4) {
  ReliabilitySimConfig config;
  config.num_disks = 40;
  config.parity_group_size = 5;
  config.scheme = Scheme::kStreamingRaid;
  config.mttf_hours = 2000.0;
  config.mttr_hours = 5.0;
  config.trials = 400;
  const ReliabilityEstimate est =
      EstimateMttfCatastrophic(config).value();

  SystemParameters p;
  p.num_disks = config.num_disks;
  p.disk.mttf_hours = config.mttf_hours;
  p.disk.mttr_hours = config.mttr_hours;
  const double predicted =
      MttfCatastrophicHours(p, Scheme::kStreamingRaid, 5).value();
  EXPECT_NEAR(est.mean_hours, predicted, 0.25 * predicted);
  EXPECT_GT(est.trials, 0);
  EXPECT_GT(est.ci95_hours, 0);
}

TEST(ReliabilitySimTest, ImprovedBandwidthIsLessReliable) {
  // Equation (5)'s (2C-1) exposure: IB reaches catastrophe roughly twice
  // as fast as the clustered schemes on the same farm.
  ReliabilitySimConfig config;
  config.num_disks = 40;
  config.parity_group_size = 5;
  config.mttf_hours = 2000.0;
  config.mttr_hours = 5.0;
  config.trials = 400;

  config.scheme = Scheme::kStreamingRaid;
  const double clustered =
      EstimateMttfCatastrophic(config)->mean_hours;
  config.scheme = Scheme::kImprovedBandwidth;
  const double ib = EstimateMttfCatastrophic(config)->mean_hours;
  EXPECT_LT(ib, clustered);
  EXPECT_NEAR(clustered / ib, (2.0 * 5 - 1) / (5 - 1), 1.2);
}

TEST(ReliabilitySimTest, DualParityCatastropheMatchesClosedForm) {
  // P+Q clusters die at THREE concurrent failures. The closed form
  // MTTF^3 * 2 / (D (C-1)(C-2) MTTR^2) carries the parallel-repair
  // factor 2: in the two-down state either repair completing rescues the
  // cluster, so it drains at rate 2/MTTR.
  ReliabilitySimConfig config;
  config.num_disks = 40;
  config.parity_group_size = 5;
  config.scheme = Scheme::kStreamingRaid2;
  config.mttf_hours = 1000.0;
  config.mttr_hours = 20.0;
  config.trials = 300;
  const ReliabilityEstimate est =
      EstimateMttfCatastrophic(config).value();

  SystemParameters p;
  p.num_disks = config.num_disks;
  p.disk.mttf_hours = config.mttf_hours;
  p.disk.mttr_hours = config.mttr_hours;
  const double predicted =
      MttfCatastrophicHours(p, Scheme::kStreamingRaid2, 5).value();
  EXPECT_NEAR(est.mean_hours, predicted, 0.30 * predicted);
  // And it must sit far above the single-parity farm's MTTF.
  const double single =
      MttfCatastrophicHours(p, Scheme::kStreamingRaid, 5).value();
  EXPECT_GT(est.mean_hours, 3.0 * single);
}

TEST(ReliabilitySimTest, KConcurrentMatchesEquation6UpToFactorial) {
  // The exact birth-death hitting time for K concurrent failures is
  // (K-1)! * MTTF^K / (D (D-1) ... (D-K+1) MTTR^(K-1)): in state j the
  // aggregate repair rate is j/MTTR, contributing the factorial the
  // paper's equation (6) drops. For K = 2 (equation (4)) the factor is 1
  // and the forms agree; for K = 3 equation (6) undercounts by 2x. We
  // validate the exact form and record the paper's approximation.
  ReliabilitySimConfig config;
  config.num_disks = 20;
  config.parity_group_size = 5;
  config.mttf_hours = 1000.0;
  config.mttr_hours = 2.0;
  config.trials = 300;
  const ReliabilityEstimate est = EstimateKConcurrent(config, 3).value();
  const double eq6 = KConcurrentFailuresMeanHours(
      config.mttf_hours, config.mttr_hours, config.num_disks, 3);
  const double exact = 2.0 * eq6;  // (K-1)! for K = 3
  EXPECT_NEAR(est.mean_hours, exact, 0.25 * exact);
  // The paper's form is a strict underestimate here.
  EXPECT_GT(est.mean_hours, eq6 * 1.3);
}

TEST(ReliabilitySimTest, OneClusterCatastropheIsExactKConcurrent) {
  // On a one-cluster farm (D = C) "catastrophic" is exactly "K disks down
  // at once": K = 2 for single parity, K = 3 for P+Q. The birth-death
  // hitting time is then the exact mean, so the estimate must sit within
  // its own sampling error of it, with no first-order model allowance.
  struct Case {
    Scheme scheme;
    int k;
  };
  for (const Case& tc : {Case{Scheme::kStreamingRaid, 2},
                         Case{Scheme::kStreamingRaid2, 3}}) {
    ReliabilitySimConfig config;
    config.num_disks = 5;
    config.parity_group_size = 5;
    config.scheme = tc.scheme;
    config.mttf_hours = 1000.0;
    config.mttr_hours = 20.0;
    config.trials = 2000;
    const ReliabilityEstimate est = EstimateMttfCatastrophic(config).value();
    const double exact = ExactKConcurrentMeanHours(
                             config.mttf_hours, config.mttr_hours,
                             config.num_disks, tc.k)
                             .value();
    const double standard_error = est.ci95_hours / 1.96;
    EXPECT_NEAR(est.mean_hours, exact, 4.0 * standard_error)
        << SchemeAbbrev(tc.scheme) << " K=" << tc.k;
  }
}

TEST(ReliabilitySimTest, KOneIsFirstFailure) {
  ReliabilitySimConfig config;
  config.num_disks = 50;
  config.mttf_hours = 1000.0;
  config.trials = 500;
  const ReliabilityEstimate est = EstimateKConcurrent(config, 1).value();
  EXPECT_NEAR(est.mean_hours, 1000.0 / 50, 0.15 * (1000.0 / 50));
}

TEST(ReliabilitySimTest, DeterministicGivenSeed) {
  ReliabilitySimConfig config;
  config.num_disks = 20;
  config.mttf_hours = 500.0;
  config.mttr_hours = 5.0;
  config.trials = 50;
  const double a = EstimateMttfCatastrophic(config)->mean_hours;
  const double b = EstimateMttfCatastrophic(config)->mean_hours;
  EXPECT_EQ(a, b);
  config.seed = 999;
  const double c = EstimateMttfCatastrophic(config)->mean_hours;
  EXPECT_NE(a, c);
}

TEST(ReliabilitySimTest, ValidatesConfig) {
  ReliabilitySimConfig config;
  config.num_disks = 0;
  EXPECT_FALSE(EstimateMttfCatastrophic(config).ok());
  config = ReliabilitySimConfig();
  config.num_disks = 7;  // not a multiple of the cluster size
  EXPECT_FALSE(EstimateMttfCatastrophic(config).ok());
  config = ReliabilitySimConfig();
  EXPECT_FALSE(EstimateKConcurrent(config, 0).ok());
}

TEST(FailureProcessTest, DrivesFailuresAndRepairs) {
  Simulator sim;
  DiskParameters params;
  params.mttf_hours = 10.0;  // very unreliable disks for a fast test
  params.mttr_hours = 1.0;
  DiskArray disks = std::move(DiskArray::Create(10, 5, params).value());
  int failures_seen = 0;
  int repairs_seen = 0;
  FailureProcess process(
      &sim, &disks, /*seed=*/7,
      {.on_failure = [&](int) { ++failures_seen; },
       .on_repair = [&](int) { ++repairs_seen; }});
  process.Start();
  sim.RunUntil(100.0 * kSecondsPerHour);
  EXPECT_GT(failures_seen, 10);
  EXPECT_GT(repairs_seen, 5);
  EXPECT_EQ(process.failures_injected(), failures_seen);
  EXPECT_EQ(process.repairs_completed(), repairs_seen);
  // Conservation: every disk is either up, or down awaiting repair.
  EXPECT_EQ(disks.NumFailed(), failures_seen - repairs_seen);
}

}  // namespace
}  // namespace ftms
