// mttdl_montecarlo: the reliability model of Section 5 by simulation.
//
// EstimateMttfCatastrophic for SR, IB and SR-2 and EstimateKConcurrent, at
// D = 1000 with MTTF/MTTR scaled so a trial stays short, on the default
// thread count. Each estimate is checked against its closed form: eq. (4)
// for SR, the layout-exact 3C-4 exposure for IB (eq. (5) charges 2C-1;
// the simulation follows the rotating-parity layout, as
// bench_reliability_sim does), the dual-parity form for SR-2; the
// K-concurrent estimate against the exact birth-death hitting time, with
// (K-1)! x eq. (6) reported beside it. Only the reliability simulator and
// the thread pool work: no scheduler, no bytes.
#include <cmath>
#include <cstdlib>
#include <cstdio>

#include "harness.h"
#include "model/reliability_model.h"
#include "reliability/birth_death.h"
#include "reliability/markov_sim.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using ftms::Scheme;

constexpr int kDisks = 1000;
constexpr int kGroup = 5;
constexpr int kConcurrent = 3;  // K of the K-concurrent estimate
// An estimate passes when it lies within this many standard errors of its
// reference, plus the reference's own model error (see EstimateSpec).
constexpr double kStandardErrors = 4.0;

struct EstimateSpec {
  const char* key;    // metric / count prefix
  const char* span;   // span name of one call
  Scheme scheme;
  bool k_concurrent;  // EstimateKConcurrent instead of catastrophic
  double mttf_hours;
  double mttr_hours;
  int trials_per_call;
  int calls;          // per drill, each on its own seed
  // Relative error allowed on top of the sampling error. The closed forms
  // are first order in MTTR/MTTF; at the ratios below the simulation sits
  // above them by about 5% (SR), 13% (IB) and 12% (SR-2) when run with
  // 4000-20000 trials. K-concurrent is checked against the exact
  // birth-death hitting time instead, with no allowance.
  double model_allowance;
};

// MTTF/MTTR ratios are scaled so a trial stays short at D = 1000. Trial
// counts per call are chosen so every call costs about the same host
// time (~15 ms of CPU), and calls per drill so that each estimate pools
// thousands of trials: the drill's total work then varies by only a
// couple of percent from seed to seed.
constexpr EstimateSpec kEstimates[] = {
    {"sr", "reliability.estimate_sr", Scheme::kStreamingRaid, false, 2000.0,
     5.0, 250, 16, 0.10},
    {"ib", "reliability.estimate_ib", Scheme::kImprovedBandwidth, false,
     2000.0, 5.0, 340, 12, 0.20},
    {"sr2", "reliability.estimate_sr2", Scheme::kStreamingRaid2, false, 500.0,
     5.0, 28, 36, 0.20},
    {"kconc", "reliability.estimate_kconc", Scheme::kStreamingRaid, true,
     50000.0, 5.0, 170, 12, 0.0},
};

// Closed-form mean hours of the event an estimate measures: eq. (4) for
// SR, the layout-exact 3C-4 exposure for IB, the dual-parity form for
// SR-2, (K-1)! x eq. (6) for K concurrent failures.
double ClosedForm(const EstimateSpec& e) {
  const double f = e.mttf_hours, r = e.mttr_hours, d = kDisks;
  if (e.k_concurrent) {
    return ftms::AsymptoticKConcurrentMeanHours(f, r, kDisks, kConcurrent);
  }
  if (e.scheme == Scheme::kImprovedBandwidth) {
    return f * f / (d * (3.0 * kGroup - 4.0) * r);
  }
  ftms::SystemParameters p;
  p.num_disks = kDisks;
  p.disk.mttf_hours = f;
  p.disk.mttr_hours = r;
  return ftms::MttfCatastrophicHours(p, e.scheme, kGroup).value_or(0);
}

// The value an estimate is checked against: the exact birth-death time
// for K concurrent failures, the closed form otherwise.
double Reference(const EstimateSpec& e) {
  if (e.k_concurrent) {
    return ftms::ExactKConcurrentMeanHours(e.mttf_hours, e.mttr_hours,
                                           kDisks, kConcurrent)
        .value_or(0);
  }
  return ClosedForm(e);
}

ftms::StatusOr<ftms::ReliabilityEstimate> Estimate(const EstimateSpec& e,
                                                   uint64_t seed,
                                                   int threads) {
  ftms::ReliabilitySimConfig config;
  config.num_disks = kDisks;
  config.parity_group_size = kGroup;
  config.scheme = e.scheme;
  config.mttf_hours = e.mttf_hours;
  config.mttr_hours = e.mttr_hours;
  config.trials = e.trials_per_call;
  config.seed = seed;
  config.threads = threads;
  return e.k_concurrent ? ftms::EstimateKConcurrent(config, kConcurrent)
                        : ftms::EstimateMttfCatastrophic(config);
}

class MttdlMonteCarlo : public Workload {
 public:
  // One thread unless the caller sets FTMS_THREADS (then the estimators'
  // default: the shared pool of that many workers).
  explicit MttdlMonteCarlo(uint64_t seed)
      : threads_(std::getenv("FTMS_THREADS") != nullptr ? 0 : 1) {
    InputRng rng(seed);
    for (const EstimateSpec& e : kEstimates) {
      std::vector<uint64_t> seeds;
      for (int c = 0; c < e.calls; ++c) seeds.push_back(rng.Next());
      seeds_.push_back(std::move(seeds));
    }
  }

  DrillResult Drill(const DrillOptions& options) override {
    DrillResult r;
    // Set-up is the analytical side of `ftms reliability`: the closed
    // forms and exact references the estimates are judged against.
    const int64_t setup_start = NowNs();
    std::vector<double> closed, reference;
    for (const EstimateSpec& e : kEstimates) {
      closed.push_back(ClosedForm(e));
      reference.push_back(Reference(e));
    }
    r.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

    std::vector<std::vector<ftms::StatusOr<ftms::ReliabilityEstimate>>>
        results(std::size(kEstimates));
    const int64_t run_start = NowNs();
    {
      ScopedSpan root(options.spans, "bench.run");
      for (size_t i = 0; i < std::size(kEstimates); ++i) {
        for (uint64_t seed : seeds_[i]) {
          const int64_t t0 = NowNs();
          {
            ScopedSpan span(options.spans, kEstimates[i].span);
            results[i].push_back(Estimate(kEstimates[i], seed, threads_));
          }
          r.step_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        }
      }
    }
    r.run_s = static_cast<double>(NowNs() - run_start) / 1e9;

    for (size_t i = 0; i < std::size(kEstimates); ++i) {
      const EstimateSpec& e = kEstimates[i];
      const std::string key = e.key;
      // Pool the calls: trial-weighted mean, standard errors combined.
      double sum = 0, var = 0;
      int64_t trials = 0;
      for (const auto& result : results[i]) {
        ++r.attempted;
        if (!result.ok() || result->trials != e.trials_per_call) {
          r.errors.push_back(key + ": estimate failed: " +
                             result.status().ToString());
          ++r.failed;
          continue;
        }
        const double se = result->ci95_hours / 1.96;
        sum += result->mean_hours * result->trials;
        var += se * se * result->trials * result->trials;
        trials += result->trials;
      }
      if (trials == 0) continue;
      const double mean = sum / static_cast<double>(trials);
      const double se = std::sqrt(var) / static_cast<double>(trials);
      const double band =
          kStandardErrors * se + e.model_allowance * reference[i];
      if (!(std::fabs(mean - reference[i]) <= band)) {
        char buf[240];
        std::snprintf(buf, sizeof(buf),
                      "%s: pooled estimate %.6g h (se %.3g h, %lld trials) "
                      "is %.1f%% off its reference %.6g h, beyond %.0f "
                      "standard errors + %.0f%%",
                      e.key, mean, se, static_cast<long long>(trials),
                      100.0 * (mean / reference[i] - 1.0), reference[i],
                      kStandardErrors, 100.0 * e.model_allowance);
        r.errors.push_back(buf);
        ++r.failed;
      }
      r.counts.emplace_back(key + ".mean_hours", mean);
      r.counts.emplace_back(key + ".se_hours", se);
      r.counts.emplace_back(key + ".trials", static_cast<double>(trials));
      r.work["trials"] += static_cast<double>(trials);
      r.work[key + ".trials"] = static_cast<double>(trials);
      r.work[key + ".closed_form_dev"] = mean / closed[i] - 1.0;
    }
    return r;
  }

  int Threads() const override {
    return threads_ == 1 ? 1 : ftms::ThreadPool::DefaultThreadCount();
  }

  void Extras(const std::vector<DrillResult>& drills,
              MetricMap* out) const override {
    double run_total = 0;
    for (const DrillResult& d : drills) run_total += d.run_s;
    (*out)["trials_per_s"] = {SumWork(drills, "trials") / run_total, "1/s"};
    for (const EstimateSpec& e : kEstimates) {
      (*out)[std::string(e.key) + ".closed_form_dev"] = {
          MedianWork(drills, std::string(e.key) + ".closed_form_dev"),
          "ratio"};
    }
  }

  void Layers(const TracedRun& run, MetricMap* out) override {
    const auto self = run.spans.SelfNsByName("bench.run");
    for (const EstimateSpec& e : kEstimates) {
      const auto it = self.find(e.span);
      const double ns = it == self.end() ? 0 : static_cast<double>(it->second);
      (*out)[std::string("reliability.") + e.key + ".ns_per_trial"] = {
          ns / SumWork(run.traced, std::string(e.key) + ".trials"),
          "ns/trial"};
    }
    (*out)["reliability.trials"] = {run.traced.front().work.at("trials"),
                                    "count"};
    // The estimators' default (the shared pool, one worker per core unless
    // FTMS_THREADS says otherwise) against one thread on the SR
    // estimate's calls, alternating, medians compared.
    std::vector<double> parallel, serial;
    for (int rep = 0; rep < 3; ++rep) {
      for (int threads : {0, 1}) {
        const int64_t t0 = NowNs();
        for (uint64_t seed : seeds_[0]) {
          Estimate(kEstimates[0], seed, threads).ok();
        }
        (threads == 0 ? parallel : serial)
            .push_back(static_cast<double>(NowNs() - t0));
      }
    }
    (*out)["reliability.parallel_speedup"] = {
        Median(serial) / Median(parallel), "ratio"};
  }

 private:
  const int threads_;  // ReliabilitySimConfig::threads of the drill
  std::vector<std::vector<uint64_t>> seeds_;  // per estimate, per call
};

}  // namespace

std::unique_ptr<Workload> MakeMttdlMonteCarlo(uint64_t seed) {
  return std::make_unique<MttdlMonteCarlo>(seed);
}

}  // namespace perfbench
