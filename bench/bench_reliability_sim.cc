// Monte-Carlo cross-validation of the reliability equations (4)-(6) on a
// scaled-down farm (real parameters would need centuries of simulated
// time per trial; the formulas are scale-free in the MTTF/MTTR ratio).

#include <cstdint>
#include <cstdio>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "model/reliability_model.h"
#include "reliability/markov_sim.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

// Trials per table row; FTMS_BENCH_TRIALS scales the workload up for
// perf measurements without touching the reported tables' shape.
int TrialsPerRow() {
  static const int trials =
      static_cast<int>(EnvInt("FTMS_BENCH_TRIALS", 300, 1, INT32_MAX));
  return trials;
}

int64_t total_trials = 0;

void CatastropheRows() {
  bench::Section(
      "Catastrophic failure: simulation vs equations (4)/(5) "
      "(D=60, MTTF=2000h, MTTR=5h, 300 trials)");
  std::printf("%-22s %4s %14s %14s %10s %12s\n", "Scheme", "C",
              "sim (hours)", "model (hours)", "dev", "95% CI");
  for (int c : {3, 5}) {
    for (Scheme scheme :
         {Scheme::kStreamingRaid, Scheme::kImprovedBandwidth}) {
      ReliabilitySimConfig config;
      config.num_disks = 60;
      config.parity_group_size = c;
      config.scheme = scheme;
      config.mttf_hours = 2000.0;
      config.mttr_hours = 5.0;
      config.trials = TrialsPerRow();
      total_trials += config.trials;
      const ReliabilityEstimate est =
          EstimateMttfCatastrophic(config).value();
      SystemParameters p;
      p.num_disks = config.num_disks;
      p.disk.mttf_hours = config.mttf_hours;
      p.disk.mttr_hours = config.mttr_hours;
      // Equation (5) charges IB an exposure of (2C-1) fellow disks per
      // failure. With rotating parity placement (every disk of cluster
      // i+1 eventually holds parity for cluster i), the layout-exact
      // exposure is (C-2) own-cluster + 2(C-1) neighbor disks = 3C-4;
      // the simulation tracks the layout.
      const double model = MttfCatastrophicHours(p, scheme, c).value();
      const double exact =
          scheme == Scheme::kImprovedBandwidth
              ? config.mttf_hours * config.mttf_hours /
                    (60.0 * (3.0 * c - 4.0) * config.mttr_hours)
              : model;
      std::printf("%-22s %4d %14.0f %14.0f %10s %12.0f\n",
                  std::string(SchemeName(scheme)).c_str(), c,
                  est.mean_hours, exact,
                  bench::Deviation(est.mean_hours, exact).c_str(),
                  est.ci95_hours);
    }
  }
  std::printf(
      "(IB rows compare against the layout-exact exposure 3C-4; the\n"
      " paper's (2C-1) undercounts the rotating-parity adjacency by\n"
      " ~20%%, a second-order effect on the scheme ranking.)\n");
}

void DegradationRows() {
  bench::Section(
      "K concurrent failures: simulation vs equation (6) "
      "(D=20, MTTF=1000h, MTTR=2h, 300 trials)");
  std::printf("%4s %14s %14s %18s %10s\n", "K", "sim (hours)",
              "eq.(6) hours", "(K-1)! x eq.(6)", "dev(exact)");
  for (int k : {1, 2, 3}) {
    ReliabilitySimConfig config;
    config.num_disks = 20;
    config.mttf_hours = 1000.0;
    config.mttr_hours = 2.0;
    config.trials = TrialsPerRow();
    total_trials += config.trials;
    const ReliabilityEstimate est =
        EstimateKConcurrent(config, k).value();
    const double eq6 =
        KConcurrentFailuresMeanHours(1000.0, 2.0, 20, k);
    double factorial = 1;
    for (int i = 2; i < k; ++i) factorial *= i;
    const double exact = factorial * eq6;
    std::printf("%4d %14.0f %14.0f %18.0f %10s\n", k, est.mean_hours, eq6,
                exact, bench::Deviation(est.mean_hours, exact).c_str());
  }
  std::printf(
      "\nFinding: the simulation matches the exact birth-death hitting\n"
      "time (K-1)! * MTTF^K / (D...(D-K+1) MTTR^(K-1)); the paper's\n"
      "equation (6) drops the factorial, a conservative 2x underestimate\n"
      "at K = 3 (and 24x at the text's K = 5) — the qualitative story\n"
      "(degradation is astronomically rarer than catastrophe) is\n"
      "unchanged.\n");
}

}  // namespace
}  // namespace ftms

int main() {
  ftms::bench::Banner(
      "Reliability Monte-Carlo vs closed forms (equations (4)-(6))");
  const int threads = ftms::ThreadPool::DefaultThreadCount();
  ftms::bench::WallTimer timer;
  ftms::CatastropheRows();
  ftms::DegradationRows();
  const double wall_s = timer.Seconds();

  std::printf("\n%lld trials in %.3f s (%.0f trials/s, %d threads)\n",
              static_cast<long long>(ftms::total_trials), wall_s,
              static_cast<double>(ftms::total_trials) / wall_s, threads);
  ftms::bench::Reporter report("reliability_sim");
  report.Set("threads", threads);
  report.Set("trials", static_cast<double>(ftms::total_trials));
  report.Set("wall_s", wall_s);
  report.Set("trials_per_sec",
             static_cast<double>(ftms::total_trials) / wall_s);
  report.WriteJson();
  return 0;
}
