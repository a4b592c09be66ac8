#include "reliability/markov_sim.h"

#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/profiler.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

Status Validate(const ReliabilitySimConfig& c) {
  if (c.num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  if (c.parity_group_size < 2) {
    return Status::InvalidArgument("parity group size must be >= 2");
  }
  if (c.mttf_hours <= 0 || c.mttr_hours <= 0) {
    return Status::InvalidArgument("MTTF/MTTR must be positive");
  }
  if (c.trials <= 0) {
    return Status::InvalidArgument("trials must be positive");
  }
  if (c.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  return Status::Ok();
}

// The farm's state during a trial. One per worker chunk of trials,
// reused: the trial loop is allocation-free after the chunk's first trial.
struct Farm {
  std::vector<int> down_in_cluster;
  std::vector<uint8_t> down;    // down[disk] = 1 while the disk is down
  std::vector<int> down_disks;  // the down disks, in no particular order
  int degraded_clusters = 0;    // clusters with at least one disk down
};

// One trial of the farm's failure/repair chain (markov_sim.h says why it
// is exact), run until `stop(farm, disk)` returns true right after `disk`
// failed; returns that failure's time.
template <typename StopFn>
double RunTrial(const ReliabilitySimConfig& c, int cluster_size, Rng& rng,
                Farm& farm, StopFn stop) {
  const int clusters = (c.num_disks + cluster_size - 1) / cluster_size;
  farm.down_in_cluster.assign(static_cast<size_t>(clusters), 0);
  farm.down.assign(static_cast<size_t>(c.num_disks), 0);
  std::vector<int>& down_disks = farm.down_disks;
  down_disks.clear();
  farm.degraded_clusters = 0;
  const uint64_t disks = static_cast<uint64_t>(c.num_disks);
  const double failure_rate = 1.0 / c.mttf_hours;
  const double repair_rate = 1.0 / c.mttr_hours;
  double now = 0;
  for (;;) {
    const int total_down = static_cast<int>(down_disks.size());
    const double failures = (c.num_disks - total_down) * failure_rate;
    const double rate = failures + total_down * repair_rate;
    now += rng.ExponentialMean(1.0 / rate);
    if (rng.NextDouble() * rate < failures) {
      // Few disks are ever down, so rejection finds an up disk at once.
      int disk;
      do {
        disk = static_cast<int>(rng.UniformInt(disks));
      } while (farm.down[static_cast<size_t>(disk)] != 0);
      farm.down[static_cast<size_t>(disk)] = 1;
      down_disks.push_back(disk);
      int& in_cluster =
          farm.down_in_cluster[static_cast<size_t>(disk / cluster_size)];
      if (in_cluster++ == 0) ++farm.degraded_clusters;
      if (stop(farm, disk)) return now;
    } else {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(total_down)));
      const int disk = down_disks[i];
      down_disks[i] = down_disks.back();
      down_disks.pop_back();
      farm.down[static_cast<size_t>(disk)] = 0;
      int& in_cluster =
          farm.down_in_cluster[static_cast<size_t>(disk / cluster_size)];
      if (--in_cluster == 0) --farm.degraded_clusters;
    }
  }
}

// Publishes one finished estimate into the metrics registry, keyed by the
// estimate kind ("catastrophic", "k_concurrent", "k_degraded_clusters").
// Runs strictly after the parallel trial loop, on the calling thread.
void PublishEstimate(const ReliabilitySimConfig& c, const char* kind,
                     const ReliabilityEstimate& est) {
  MetricsRegistry* registry =
      c.metrics != nullptr ? c.metrics : MetricsRegistry::GlobalIfEnabled();
  if (registry == nullptr) return;
  registry
      ->GetCounter(
          LabeledName("ftms_reliability_trials_total", {{"kind", kind}}),
          "Monte Carlo trials contributing to this reliability estimate")
      ->Add(est.trials);
  registry
      ->GetGauge(
          LabeledName("ftms_reliability_mean_hours", {{"kind", kind}}),
          "Estimated mean hours to the event named by the kind label")
      ->Set(est.mean_hours);
  registry
      ->GetGauge(
          LabeledName("ftms_reliability_ci95_hours", {{"kind", kind}}),
          "Half-width of the 95% confidence interval on the mean")
      ->Set(est.ci95_hours);
}

// Runs `c.trials` independent trials, each on its own deterministic RNG
// stream, parallelized over the shared pool. The per-trial results are
// gathered positionally and folded into the estimate in trial order, so
// the returned numbers are bit-identical for any `c.threads`.
template <typename StopFn>
ReliabilityEstimate RunTrials(const ReliabilitySimConfig& c,
                              int cluster_size, const char* kind,
                              StopFn stop) {
  std::vector<double> times(static_cast<size_t>(c.trials), 0.0);
  const int threads =
      c.threads > 0 ? c.threads : ThreadPool::DefaultThreadCount();
  ThreadPool* pool = threads > 1 ? &ThreadPool::Shared() : nullptr;
  ParallelFor(pool, 0, c.trials, [&](int64_t lo, int64_t hi) {
    Farm farm;
    for (int64_t t = lo; t < hi; ++t) {
      // One scope per TRIAL (the logical work unit), never per chunk:
      // chunk shapes vary with the thread count, trial counts do not.
      FTMS_PROF_SCOPE("reliability/trial");
      Rng rng(c.seed ^ SplitMix64Hash(static_cast<uint64_t>(t)));
      times[static_cast<size_t>(t)] =
          RunTrial(c, cluster_size, rng, farm, stop);
    }
  });

  StreamingStats stats;
  for (double t : times) stats.Add(t);
  ReliabilityEstimate est;
  est.mean_hours = stats.mean();
  est.ci95_hours = stats.ConfidenceHalfWidth95();
  est.trials = static_cast<int>(stats.count());
  PublishEstimate(c, kind, est);
  return est;
}

}  // namespace

StatusOr<ReliabilityEstimate> EstimateMttfCatastrophic(
    const ReliabilitySimConfig& config) {
  FTMS_RETURN_IF_ERROR(Validate(config));
  const bool ib = config.scheme == Scheme::kImprovedBandwidth;
  const int cluster_size =
      ib ? config.parity_group_size - 1 : config.parity_group_size;
  if (config.num_disks % cluster_size != 0) {
    return Status::InvalidArgument(
        "num_disks must be a multiple of the cluster size");
  }
  const int clusters = config.num_disks / cluster_size;
  // Single-parity clusters die at two concurrent failures; dual-parity
  // (P+Q) clusters survive two and die at three.
  const int fatal = ParityDisksPerCluster(config.scheme) >= 2 ? 3 : 2;

  return RunTrials(
      config, cluster_size, "catastrophic",
      [ib, clusters, cluster_size, fatal](const Farm& farm, int disk) {
        const std::vector<int>& down_per_cluster = farm.down_in_cluster;
        const int cl = disk / cluster_size;
        if (down_per_cluster[static_cast<size_t>(cl)] >= fatal) return true;
        if (!ib) return false;
        // IB: a down disk in an adjacent cluster is also fatal (shared
        // parity dependency across the cluster boundary).
        const int left = (cl + clusters - 1) % clusters;
        const int right = (cl + 1) % clusters;
        return down_per_cluster[static_cast<size_t>(left)] > 0 ||
               down_per_cluster[static_cast<size_t>(right)] > 0;
      });
}

StatusOr<ReliabilityEstimate> EstimateKDegradedClusters(
    const ReliabilitySimConfig& config, int k_clusters) {
  FTMS_RETURN_IF_ERROR(Validate(config));
  const int cluster_size = config.parity_group_size;
  if (config.num_disks % cluster_size != 0) {
    return Status::InvalidArgument(
        "num_disks must be a multiple of the cluster size");
  }
  const int clusters = config.num_disks / cluster_size;
  if (k_clusters < 1 || k_clusters > clusters) {
    return Status::InvalidArgument("k_clusters out of range");
  }
  return RunTrials(
      config, cluster_size, "k_degraded_clusters",
      [k_clusters](const Farm& farm, int) {
        return farm.degraded_clusters >= k_clusters;
      });
}

StatusOr<ReliabilityEstimate> EstimateKConcurrent(
    const ReliabilitySimConfig& config, int k_concurrent) {
  FTMS_RETURN_IF_ERROR(Validate(config));
  if (k_concurrent < 1 || k_concurrent > config.num_disks) {
    return Status::InvalidArgument("k_concurrent out of range");
  }
  return RunTrials(config, config.parity_group_size, "k_concurrent",
                   [k_concurrent](const Farm& farm, int) {
                     return static_cast<int>(farm.down_disks.size()) >=
                            k_concurrent;
                   });
}

}  // namespace ftms
