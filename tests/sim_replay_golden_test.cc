#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>

#include "qos/event_journal.h"
#include "reliability/failure_process.h"
#include "sim/simulator.h"
#include "tests/sched_test_util.h"
#include "util/metrics.h"

namespace ftms {
namespace {

// Replay goldens for the discrete-event engine (DESIGN.md §11): a
// simulation driven through the Simulator — a periodic scheduler-cycle
// timer plus exponential failure/repair events — for each of the six
// schemes, healthy and under FailureProcess failure injection. Each run's
// event count, journal, metrics registry and scheduler counters are
// pinned as literals, so any change to the engine's (time, FIFO seq) pop
// order shows up as a diff here. If an intentional behaviour change
// moves them, re-capture and update the table — never loosen the
// comparison.

// 64-bit FNV-1a: a compact fingerprint of a text artifact.
uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

// Drops every ftms_sched_cycle_wall_us line (HELP/TYPE, buckets, count,
// sum): that histogram measures real elapsed time per cycle, not
// simulated state, so it differs run to run.
std::string ScrubWallClock(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string_view line(text.data() + pos, eol - pos + 1);
    if (line.find("ftms_sched_cycle_wall_us") == std::string_view::npos) {
      out.append(line);
    }
    pos = eol + 1;
  }
  return out;
}

struct ReplayResult {
  uint64_t events_processed = 0;
  uint64_t journal_fnv = 0;
  uint64_t registry_fnv = 0;
  int64_t cycles = 0;
  int64_t data_reads = 0;
  int64_t parity_reads = 0;
  int64_t failed_reads = 0;
  int64_t dropped_reads = 0;
  int64_t tracks_delivered = 0;
  int64_t hiccups = 0;
  int64_t reconstructed = 0;
  int64_t shift_cascades = 0;

  friend bool operator==(const ReplayResult&, const ReplayResult&) = default;
};

// Prints a mismatch in the same initializer form the table uses, so a
// deliberate re-capture is a copy-paste.
void PrintTo(const ReplayResult& r, std::ostream* os) {
  *os << "{.events_processed = " << r.events_processed << ", .journal_fnv = 0x"
      << std::hex << r.journal_fnv << "ull, .registry_fnv = 0x"
      << r.registry_fnv << std::dec << "ull, .cycles = " << r.cycles
      << ", .data_reads = " << r.data_reads
      << ", .parity_reads = " << r.parity_reads
      << ", .failed_reads = " << r.failed_reads
      << ", .dropped_reads = " << r.dropped_reads
      << ", .tracks_delivered = " << r.tracks_delivered
      << ", .hiccups = " << r.hiccups
      << ", .reconstructed = " << r.reconstructed
      << ", .shift_cascades = " << r.shift_cascades << "}";
}

ReplayResult RunScenario(Scheme scheme, bool with_failures) {
  MetricsRegistry registry;
  EventJournal journal;
  RigOptions options;
  options.metrics = &registry;
  options.journal = &journal;
  const int disks = scheme == Scheme::kImprovedBandwidth ? 8 : 10;
  SchedRig rig = MakeRig(scheme, 5, disks, options);
  rig.sched->AddStream(TestObject(0, 96)).value();
  rig.sched->AddStream(TestObject(1, 96)).value();

  Simulator sim;
  sim.BindInstruments(registry.GetCounter("sim_events_total"),
                      registry.GetGauge("sim_events_pending"));
  sim.BindJournal(&journal);

  // Absurdly flaky shadow disks make several failure/repair episodes land
  // inside the run; the scheduler is told about one failure at a time.
  std::unique_ptr<DiskArray> shadow;
  std::unique_ptr<FailureProcess> process;
  int sched_failed = -1;
  if (with_failures) {
    DiskParameters flaky;
    flaky.mttf_hours = 0.002;
    flaky.mttr_hours = 0.0005;
    shadow = std::make_unique<DiskArray>(std::move(
        DiskArray::Create(disks, rig.layout->disks_per_cluster(), flaky)
            .value()));
    process = std::make_unique<FailureProcess>(
        &sim, shadow.get(), /*seed=*/11,
        FailureProcess::Callbacks{
            .on_failure =
                [&](int disk) {
                  if (sched_failed < 0) {
                    sched_failed = disk;
                    rig.sched->OnDiskFailed(disk, /*mid_cycle=*/false);
                  }
                },
            .on_repair =
                [&](int disk) {
                  if (disk == sched_failed) {
                    rig.sched->OnDiskRepaired(disk);
                    sched_failed = -1;
                  }
                }});
    process->Start();
  }

  const double cycle_s = rig.sched->CycleSeconds();
  PeriodicTimer cycle_timer(&sim, cycle_s, [&] {
    rig.sched->RunCycles(1);
    return true;
  });
  cycle_timer.Start(0.0);
  sim.RunUntil(150.0 * cycle_s);
  cycle_timer.Cancel();

  const SchedulerMetrics& m = rig.sched->metrics();
  return {.events_processed = sim.events_processed(),
          .journal_fnv = Fnv1a(journal.ToJsonl()),
          .registry_fnv = Fnv1a(ScrubWallClock(registry.PrometheusText())),
          .cycles = m.cycles,
          .data_reads = m.data_reads,
          .parity_reads = m.parity_reads,
          .failed_reads = m.failed_reads,
          .dropped_reads = m.dropped_reads,
          .tracks_delivered = m.tracks_delivered,
          .hiccups = m.hiccups,
          .reconstructed = m.reconstructed,
          .shift_cascades = m.shift_cascades};
}

struct GoldenRow {
  Scheme scheme;
  ReplayResult healthy;
  ReplayResult failures;
};

const GoldenRow& Row(Scheme scheme) {
  static const GoldenRow kRows[] = {
      {Scheme::kStreamingRaid,
       {.events_processed = 151, .journal_fnv = 0x9a00889ca3b0a5eull,
        .registry_fnv = 0x956854606307a814ull, .cycles = 151,
        .data_reads = 192, .parity_reads = 48, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 0, .shift_cascades = 0},
       {.events_processed = 482, .journal_fnv = 0x702a79fbe50e10cdull,
        .registry_fnv = 0x98b76ec8b9fc3936ull, .cycles = 151,
        .data_reads = 179, .parity_reads = 44, .failed_reads = 17,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 13, .shift_cascades = 0}},
      {Scheme::kStaggeredGroup,
       {.events_processed = 151, .journal_fnv = 0x702950373e158185ull,
        .registry_fnv = 0x33d49b6d68bdea1bull, .cycles = 151,
        .data_reads = 192, .parity_reads = 48, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 0, .shift_cascades = 0},
       {.events_processed = 238, .journal_fnv = 0x7af0ec0a8352e7e5ull,
        .registry_fnv = 0x1c8e53b872f852bbull, .cycles = 151,
        .data_reads = 179, .parity_reads = 44, .failed_reads = 17,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 13, .shift_cascades = 0}},
      {Scheme::kNonClustered,
       {.events_processed = 151, .journal_fnv = 0x702950373e158185ull,
        .registry_fnv = 0xc2fbe11566f90492ull, .cycles = 151,
        .data_reads = 192, .parity_reads = 0, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 0, .shift_cascades = 0},
       {.events_processed = 238, .journal_fnv = 0xe92f56ba478fa49cull,
        .registry_fnv = 0x5bcaf1a722f87242ull, .cycles = 151,
        .data_reads = 181, .parity_reads = 10, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 191, .hiccups = 1,
        .reconstructed = 10, .shift_cascades = 0}},
      {Scheme::kImprovedBandwidth,
       {.events_processed = 151, .journal_fnv = 0x9a00889ca3b0a5eull,
        .registry_fnv = 0xf4d91f7ca61c3d64ull, .cycles = 151,
        .data_reads = 192, .parity_reads = 0, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 0, .shift_cascades = 0},
       {.events_processed = 420, .journal_fnv = 0x1773445bcadd605eull,
        .registry_fnv = 0xee35625856deef9dull, .cycles = 151,
        .data_reads = 181, .parity_reads = 11, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 11, .shift_cascades = 0}},
      {Scheme::kStreamingRaid2,
       {.events_processed = 151, .journal_fnv = 0x702950373e158185ull,
        .registry_fnv = 0x6be61d36c3ed663aull, .cycles = 151,
        .data_reads = 192, .parity_reads = 128, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 0, .shift_cascades = 0},
       {.events_processed = 238, .journal_fnv = 0x4e9b555320b542d5ull,
        .registry_fnv = 0x5ed24d0846cd0583ull, .cycles = 151,
        .data_reads = 175, .parity_reads = 125, .failed_reads = 20,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 17, .shift_cascades = 0}},
      {Scheme::kNonClustered2,
       {.events_processed = 151, .journal_fnv = 0x702950373e158185ull,
        .registry_fnv = 0x41b4d9767d319db8ull, .cycles = 151,
        .data_reads = 192, .parity_reads = 0, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 0, .shift_cascades = 0},
       {.events_processed = 238, .journal_fnv = 0x862f6e95b52a7795ull,
        .registry_fnv = 0xe409c1b3ff90e74ull, .cycles = 151,
        .data_reads = 181, .parity_reads = 11, .failed_reads = 0,
        .dropped_reads = 0, .tracks_delivered = 192, .hiccups = 0,
        .reconstructed = 11, .shift_cascades = 0}},
  };
  for (const GoldenRow& row : kRows) {
    if (row.scheme == scheme) return row;
  }
  ADD_FAILURE() << "no golden row for " << SchemeName(scheme);
  return kRows[0];
}

class SimReplayGolden
    : public ::testing::TestWithParam<std::tuple<Scheme, bool>> {};

TEST_P(SimReplayGolden, ReplayMatchesGolden) {
  const auto [scheme, with_failures] = GetParam();
  const GoldenRow& row = Row(scheme);
  const ReplayResult got = RunScenario(scheme, with_failures);
  EXPECT_GT(got.events_processed, 100u);  // the drill actually ran
  EXPECT_EQ(got, with_failures ? row.failures : row.healthy)
      << SchemeName(scheme)
      << (with_failures ? " (failure injection)" : " (healthy)");
}

INSTANTIATE_TEST_SUITE_P(
    SchemesHealthyAndFailing, SimReplayGolden,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kStaggeredGroup,
                                         Scheme::kNonClustered,
                                         Scheme::kImprovedBandwidth,
                                         Scheme::kStreamingRaid2,
                                         Scheme::kNonClustered2),
                       ::testing::Bool()));

}  // namespace
}  // namespace ftms
