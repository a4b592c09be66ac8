#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "tests/sched_test_util.h"

namespace ftms {
namespace {

// Serial-cycle goldens: every SchedulerMetrics counter and the buffer-pool
// peak of a farm-scale run (240-1040 streams on D = 96-100, C = 5) for
// each of the six schemes, healthy and with a mid-cycle failure plus
// repair, and the NC multi-rate mix. Each cycle walks the active streams
// once in admission order; these literals pin that schedule. If an
// intentional scheduling change moves them, re-capture and update the
// table — never loosen the comparison.

struct RunResult {
  SchedulerMetrics metrics;
  int64_t pool_peak = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

// Prints a mismatch in the same initializer form the table uses, so a
// deliberate re-capture is a copy-paste.
void PrintTo(const RunResult& r, std::ostream* os) {
  const SchedulerMetrics& m = r.metrics;
  *os << "{{.cycles = " << m.cycles << ", .data_reads = " << m.data_reads
      << ", .parity_reads = " << m.parity_reads
      << ", .failed_reads = " << m.failed_reads
      << ", .dropped_reads = " << m.dropped_reads
      << ", .tracks_delivered = " << m.tracks_delivered
      << ", .hiccups = " << m.hiccups
      << ", .reconstructed = " << m.reconstructed
      << ", .terminated_streams = " << m.terminated_streams
      << ", .degradation_events = " << m.degradation_events
      << ", .shift_cascades = " << m.shift_cascades
      << ", .max_shift_depth = " << m.max_shift_depth
      << ", .verified_tracks = " << m.verified_tracks
      << ", .verify_failures = " << m.verify_failures << "}, "
      << r.pool_peak << "}";
}

// One farm-scale scenario per scheme, loaded to (or just under) its
// healthy capacity, with the serial schedule's outcome healthy and with
// disk 1 failing mid-cycle for 30 cycles before its repair.
struct GoldenRow {
  Scheme scheme;
  int disks;
  int streams;
  int stagger_every;  // NC balances by position: admit this many per cycle
  RunResult healthy;
  RunResult failed;
};

const GoldenRow& Row(Scheme scheme) {
  static const GoldenRow kRows[] = {
      {Scheme::kStreamingRaid, 100, 1040, 0,
       {{.cycles = 40, .data_reads = 166400, .parity_reads = 41600,
         .failed_reads = 0, .dropped_reads = 0, .tracks_delivered = 162240,
         .hiccups = 0, .reconstructed = 0, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        10400},
       {{.cycles = 70, .data_reads = 289640, .parity_reads = 72800,
         .failed_reads = 1560, .dropped_reads = 0, .tracks_delivered = 287040,
         .hiccups = 0, .reconstructed = 1560, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        10400}},
      {Scheme::kStaggeredGroup, 100, 960, 0,
       {{.cycles = 40, .data_reads = 38400, .parity_reads = 9600,
         .failed_reads = 0, .dropped_reads = 0, .tracks_delivered = 36000,
         .hiccups = 0, .reconstructed = 0, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        4560},
       {{.cycles = 70, .data_reads = 66840, .parity_reads = 16800,
         .failed_reads = 360, .dropped_reads = 0, .tracks_delivered = 64800,
         .hiccups = 0, .reconstructed = 360, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        4560}},
      {Scheme::kNonClustered, 100, 960, 12,
       {{.cycles = 120, .data_reads = 77280, .parity_reads = 0,
         .failed_reads = 0, .dropped_reads = 0, .tracks_delivered = 76320,
         .hiccups = 0, .reconstructed = 0, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        1920},
       {{.cycles = 150, .data_reads = 105684, .parity_reads = 348,
         .failed_reads = 0, .dropped_reads = 36, .tracks_delivered = 105072,
         .hiccups = 48, .reconstructed = 348, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        1980}},
      {Scheme::kImprovedBandwidth, 96, 960, 0,
       {{.cycles = 40, .data_reads = 153600, .parity_reads = 0,
         .failed_reads = 0, .dropped_reads = 0, .tracks_delivered = 149760,
         .hiccups = 0, .reconstructed = 0, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        7680},
       {{.cycles = 70, .data_reads = 266208, .parity_reads = 2552,
         .failed_reads = 40, .dropped_reads = 0, .tracks_delivered = 264920,
         .hiccups = 40, .reconstructed = 2552, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 1392, .max_shift_depth = 3,
         .verified_tracks = 0, .verify_failures = 0},
        7680}},
      {Scheme::kStreamingRaid2, 100, 240, 0,
       {{.cycles = 40, .data_reads = 28800, .parity_reads = 19200,
         .failed_reads = 0, .dropped_reads = 0, .tracks_delivered = 28080,
         .hiccups = 0, .reconstructed = 0, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        2400},
       {{.cycles = 70, .data_reads = 50040, .parity_reads = 33600,
         .failed_reads = 360, .dropped_reads = 0, .tracks_delivered = 49680,
         .hiccups = 0, .reconstructed = 360, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        2400}},
      {Scheme::kNonClustered2, 100, 720, 20,
       {{.cycles = 76, .data_reads = 42120, .parity_reads = 0,
         .failed_reads = 0, .dropped_reads = 0, .tracks_delivered = 41400,
         .hiccups = 0, .reconstructed = 0, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        1440},
       {{.cycles = 106, .data_reads = 63348, .parity_reads = 348,
         .failed_reads = 0, .dropped_reads = 12, .tracks_delivered = 62976,
         .hiccups = 24, .reconstructed = 348, .terminated_streams = 0,
         .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
         .verified_tracks = 0, .verify_failures = 0},
        1476}},
  };
  for (const GoldenRow& row : kRows) {
    if (row.scheme == scheme) return row;
  }
  ADD_FAILURE() << "no golden row for " << SchemeName(scheme);
  return kRows[0];
}

// Admits the row's streams round-robin over the clusters, runs 30 cycles,
// optionally fails disk 1 mid-cycle for 30 cycles and repairs it, then
// runs 10 more.
RunResult RunScenario(const GoldenRow& row, bool fail) {
  SchedRig rig = MakeRig(row.scheme, 5, row.disks);
  const int clusters = rig.layout->num_clusters();
  for (int i = 0; i < row.streams; ++i) {
    rig.sched->AddStream(TestObject(i % clusters, 100000)).value();
    if (row.stagger_every > 0 &&
        i % row.stagger_every == row.stagger_every - 1) {
      rig.sched->RunCycle();
    }
  }
  rig.sched->RunCycles(30);
  if (fail) {
    rig.sched->OnDiskFailed(1, /*mid_cycle=*/true);
    rig.sched->RunCycles(30);
    rig.sched->OnDiskRepaired(1);
  }
  rig.sched->RunCycles(10);
  return {rig.sched->metrics(), rig.sched->buffer_pool().peak_in_use()};
}

class SerialCycleGolden
    : public ::testing::TestWithParam<std::tuple<Scheme, bool>> {};

TEST_P(SerialCycleGolden, MetricsAndBufferPeakMatch) {
  const auto [scheme, fail] = GetParam();
  const GoldenRow& row = Row(scheme);
  EXPECT_EQ(RunScenario(row, fail), fail ? row.failed : row.healthy)
      << SchemeName(scheme)
      << (fail ? " (mid-cycle failure run)" : " (healthy run)");
}

INSTANTIATE_TEST_SUITE_P(
    SchemesHealthyAndFailed, SerialCycleGolden,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kStaggeredGroup,
                                         Scheme::kNonClustered,
                                         Scheme::kImprovedBandwidth,
                                         Scheme::kStreamingRaid2,
                                         Scheme::kNonClustered2),
                       ::testing::Bool()));

// NC serving a mixed-rate population: every seventh stream at 3x the base
// rate (MPEG-2 over MPEG-1), whose per-cycle bursts can cross a group
// and cluster boundary.
TEST(SerialCycleGolden, NcMultiRate) {
  SchedRig rig = MakeRig(Scheme::kNonClustered, 5, 100);
  const int clusters = rig.layout->num_clusters();
  for (int i = 0; i < 400; ++i) {
    const double rate = (i % 7 == 0) ? 3 * 0.1875 : 0.1875;
    rig.sched->AddStream(TestObject(i % clusters, 9996, rate)).value();
    if (i % 12 == 11) rig.sched->RunCycle();
  }
  rig.sched->RunCycles(30);
  rig.sched->OnDiskFailed(1, /*mid_cycle=*/true);
  rig.sched->RunCycles(30);
  rig.sched->OnDiskRepaired(1);
  rig.sched->RunCycles(10);
  const RunResult got{rig.sched->metrics(),
                      rig.sched->buffer_pool().peak_in_use()};
  const RunResult want =
      {{.cycles = 103, .data_reads = 44609, .parity_reads = 190,
        .failed_reads = 0, .dropped_reads = 1, .tracks_delivered = 44283,
        .hiccups = 5, .reconstructed = 190, .terminated_streams = 0,
        .degradation_events = 0, .shift_cascades = 0, .max_shift_depth = 0,
        .verified_tracks = 0, .verify_failures = 0},
       1067};
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ftms
