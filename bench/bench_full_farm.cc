// Full-scale farm simulation at the paper's Table 1 size (D = 100,
// ~1000 concurrent streams): the schedulers run the real per-cycle
// machinery at scale, a disk fails mid-run, and the run must confirm
// the analytical capacity, buffer and masking results hold at full
// population — not just on the scaled-down test rigs.

#include <cstdio>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "model/buffers.h"
#include "model/capacity.h"
#include "tests/sched_test_util.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

// Perf-trajectory counters accumulated across the five farm runs of one
// drill.
// Passed through RunFarm (no file-scope state) so the suite can be run
// several times in one process with independent totals.
struct FarmTotals {
  int64_t cycles = 0;
  int64_t reads = 0;
  int64_t tracks = 0;
};

void RunFarm(Scheme scheme, int c, int disks, int streams,
             int stagger_every, bool print, FarmTotals* totals) {
  SchedRig rig = MakeRig(scheme, c, disks);
  const int clusters = rig.layout->num_clusters();
  for (int i = 0; i < streams; ++i) {
    rig.sched->AddStream(TestObject(i % clusters, 100000)).value();
    // NC balances by stream POSITION, which is set by the start cycle:
    // admit in slot-sized groups, one cycle apart.
    if (stagger_every > 0 && i % stagger_every == stagger_every - 1) {
      rig.sched->RunCycle();
    }
  }
  rig.sched->RunCycles(30);
  const int64_t drops_healthy = rig.sched->metrics().dropped_reads;
  const int64_t hiccups_healthy = rig.sched->metrics().hiccups;
  rig.sched->OnDiskFailed(1, /*mid_cycle=*/false);
  rig.sched->RunCycles(30);
  rig.sched->OnDiskRepaired(1);
  rig.sched->RunCycles(10);

  const SchedulerMetrics& m = rig.sched->metrics();
  totals->cycles += m.cycles;
  totals->reads += m.data_reads + m.parity_reads + m.failed_reads;
  totals->tracks += m.tracks_delivered;
  if (!print) return;
  SystemParameters p;
  p.num_disks = disks;
  const double analytic_buffer =
      TotalBufferTracks(p, scheme, c).value_or(0) *
      static_cast<double>(streams) /
      static_cast<double>(MaxStreams(p, scheme, c).value_or(1));
  std::printf(
      "%-22s %8d %8lld %10lld %12lld %12lld %14.0f %14lld\n",
      std::string(SchemeName(scheme)).c_str(), streams,
      static_cast<long long>(drops_healthy),
      static_cast<long long>(hiccups_healthy),
      static_cast<long long>(m.hiccups - hiccups_healthy),
      static_cast<long long>(m.reconstructed),
      analytic_buffer,
      static_cast<long long>(rig.sched->buffer_pool().peak_in_use()));
}

}  // namespace
}  // namespace ftms

int main() {
  using namespace ftms;
  bench::Banner(
      "Full-scale farm (Table 1: D = 100, C = 5, ~1000 streams), one "
      "disk failure mid-run");
  std::printf(
      "%-22s %8s %8s %10s %12s %12s %14s %14s\n", "Scheme", "streams",
      "drops", "hiccups0", "hiccupsF", "reconstr", "buf(analytic)",
      "buf(measured)");
  // Realizable capacities (integral slot granularity, see
  // sched_capacity_test): SR 1040 of 1041, NC 960 of 966, SG ~960,
  // IB on 96 disks.
  // One ~20 ms drill is too short to time alone: repeat it and report the
  // median, so host load on a single run cannot pass for a regression.
  FarmTotals totals;
  const bench::RepeatedTimings timings = bench::TimeRepeated([&](int run) {
    const bool print = run == 0;
    totals = FarmTotals();
    RunFarm(Scheme::kStreamingRaid, 5, 100, 1040, 0, print, &totals);
    RunFarm(Scheme::kStaggeredGroup, 5, 100, 960, 0, print, &totals);
    RunFarm(Scheme::kNonClustered, 5, 100, 960, 12, print, &totals);
    RunFarm(Scheme::kImprovedBandwidth, 5, 96, 960, 0, print, &totals);
    RunFarm(Scheme::kImprovedBandwidth, 5, 96, 1200, 0, print, &totals);
  });
  const double wall_s = timings.median_s;
  std::printf(
      "\n%lld scheduler cycles / %lld disk reads per run, median %.4f s "
      "(min %.4f, MAD %.4f, n=%d; %.0f cycles/s, %.2e reads/s), serial "
      "cycles\n",
      static_cast<long long>(totals.cycles),
      static_cast<long long>(totals.reads), wall_s, timings.min_s,
      timings.mad_s, timings.runs,
      static_cast<double>(totals.cycles) / wall_s,
      static_cast<double>(totals.reads) / wall_s);
  bench::Reporter report("full_farm");
  report.Set("cycles", static_cast<double>(totals.cycles));
  report.Set("reads", static_cast<double>(totals.reads));
  report.Set("tracks_delivered", static_cast<double>(totals.tracks));
  report.Set("threads", static_cast<double>(ThreadPool::DefaultThreadCount()));
  report.SetRepeated("wall_s", timings);
  report.Set("cycles_per_sec", static_cast<double>(totals.cycles) / wall_s);
  report.Set("reads_per_sec", static_cast<double>(totals.reads) / wall_s);
  report.WriteJson();
  std::printf(
      "\nReading: at admission-controlled load no reads drop and no\n"
      "stream hiccups before the failure; SR/SG mask the failure\n"
      "entirely (hiccupsF = 0), NC loses only the transition tracks of\n"
      "mid-group streams. IB masks the failure while idle slots cover\n"
      "the neighbor cluster's parity reads (960 streams = 40/cluster,\n"
      "12 idle slots/disk) but at 1200 streams (50/cluster, 2 idle) the\n"
      "shift finds too little capacity and tracks drop — Section 4's\n"
      "capacity-reservation argument, live. Measured buffer peaks track\n"
      "equations (12)-(15) scaled to the admitted population (SG sits\n"
      "above its equation by the overlap-cycle convention).\n");
  return 0;
}
