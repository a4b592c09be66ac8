// rebuild_datapath: the operator's failure-and-rebuild drill with real
// bytes, as `ftms qos` runs it.
//
// A small farm carries a light, admission-controlled stream load, so the
// rebuild competes for idle slots. Schemes: SR in integrity mode
// (SchedulerConfig::verify_data, every delivered track checked against
// ground truth), NC, IB, and SR-2 with two concurrent failures repaired
// through P+Q. RebuildManager::AttachDataPath regenerates every track of
// the attached object on each rebuilt disk and verifies it. A private
// EventJournal, QosLedger, MetricsRegistry and TimeSeriesRecorder are
// attached; after the drill the ConformanceWatchdog judges the run and the
// registry and time series are rendered as an exporter would. The drill
// fails on any byte mismatch, an unreconstructible track, a rebuild that
// does not complete, or a watchdog finding.
//
// The variant drill (traced runs only) detaches the four sinks, so the
// ratio of cycle times measures what observability costs.
#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "layout/catalog.h"
#include "layout/layout.h"
#include "parity/pq_kernels.h"
#include "parity/xor_kernels.h"
#include "qos/conformance.h"
#include "qos/event_journal.h"
#include "qos/qos_ledger.h"
#include "sched/cycle_scheduler.h"
#include "server/rebuild_manager.h"
#include "stream/admission.h"
#include "util/metrics.h"
#include "util/timeseries.h"
#include "verify/datapath.h"

namespace perfbench {
namespace {

using ftms::Scheme;

constexpr int kGroup = 5;                // C
constexpr size_t kTrackBytes = 50 * 1024;  // one 50 KB track
constexpr double kDiskMb = 25.0;         // 500 tracks per disk
constexpr int kStreamObjects = 8;        // objects the streams play
constexpr int kRebuildCycleLimit = 5000;
constexpr int kStreamsPerCluster = 2;
constexpr int kHealthyCycles = 4;
constexpr int kSettleCycles = 4;
// Bytes per track the SR scheduler carries in integrity mode
// (StreamingRaidScheduler::kVerifyBlockBytes, which is not public).
constexpr double kIntegrityBlockBytes = 64;

struct SchemeSpec {
  Scheme scheme;
  const char* key;
  int disks;
  bool integrity;  // SR integrity mode
};
constexpr SchemeSpec kSchemes[] = {
    {Scheme::kStreamingRaid, "sr", 20, true},
    {Scheme::kNonClustered, "nc", 20, false},
    {Scheme::kImprovedBandwidth, "ib", 16, false},
    {Scheme::kStreamingRaid2, "sr2", 20, false},
};

// Seeded inputs of one scheme's drill.
struct Plan {
  std::vector<int64_t> lengths;  // object 0 is the attached object
  std::vector<int> requests;     // object per offered stream
  std::vector<int> failed;       // one disk, or two of one cluster
  bool mid_cycle = false;
};

// Everything one scheme's drill builds in set-up.
struct Stack {
  std::unique_ptr<ftms::Layout> layout;
  std::unique_ptr<ftms::DiskArray> disks;
  std::unique_ptr<ftms::CycleScheduler> sched;
  std::unique_ptr<ftms::RebuildManager> rebuild;
  ftms::EventJournal journal;
  ftms::QosLedger ledger;
  ftms::MetricsRegistry registry;
  ftms::TimeSeriesRecorder timeseries;
};

class RebuildDatapath : public Workload {
 public:
  explicit RebuildDatapath(uint64_t seed) {
    InputRng rng(seed);
    for (const SchemeSpec& spec : kSchemes) {
      auto layout = ftms::CreateLayout(spec.scheme, spec.disks, kGroup);
      const int cluster = (*layout)->disks_per_cluster();
      const int64_t tracks_per_disk =
          static_cast<int64_t>(kDiskMb / ftms::DiskParameters().track_mb);
      const int64_t data_disks =
          static_cast<int64_t>(spec.disks) *
          (*layout)->DataBlocksPerGroup() / kGroup;
      Plan plan;
      // The attached object covers half of every data disk; the stream
      // objects are short. Sizes and load are fixed so that every seed
      // asks for the same amount of work; the seed picks the stream
      // objects' lengths, the viewers' choices, and the failure.
      plan.lengths.push_back(tracks_per_disk * data_disks / 2);
      for (int i = 1; i <= kStreamObjects; ++i) {
        plan.lengths.push_back(100 + rng.Below(101));
      }
      // Light load, as `ftms qos` drills it: two streams per cluster,
      // started one cycle apart so the failure finds them at different
      // group positions; the objects are picked by Zipf popularity.
      const Zipf zipf(kStreamObjects + 1, 0.729);
      const int streams = kStreamsPerCluster * spec.disks /
                          (*layout)->disks_per_cluster();
      for (int i = 0; i < streams; ++i) {
        plan.requests.push_back(zipf.Sample(rng));
      }
      // The failed disks hold data of the attached object (a parity-only
      // disk would leave the byte-level rebuild nothing to do): one such
      // disk, and for P+Q a second data disk of the same cluster.
      std::vector<int64_t> on_disk(static_cast<size_t>(spec.disks), 0);
      for (int64_t t = 0; t < plan.lengths[0]; ++t) {
        ++on_disk[static_cast<size_t>((*layout)->DataLocation(0, t).disk)];
      }
      std::vector<int> candidates;
      for (int d = 0; d < spec.disks; ++d) {
        if (on_disk[static_cast<size_t>(d)] > 0) candidates.push_back(d);
      }
      const int first = candidates[static_cast<size_t>(
          rng.Below(static_cast<int64_t>(candidates.size())))];
      plan.failed.push_back(first);
      if (ftms::IsDualParity(spec.scheme)) {
        std::vector<int> mates;
        for (int d : candidates) {
          if (d != first && d / cluster == first / cluster) mates.push_back(d);
        }
        plan.failed.push_back(mates[static_cast<size_t>(
            rng.Below(static_cast<int64_t>(mates.size())))]);
      }
      plan.mid_cycle = rng.Below(2) == 1;
      plans_.push_back(std::move(plan));
    }
  }

  bool HasVariant() const override { return true; }
  // Two streams per cluster stay below the schedulers' parallel threshold
  // and the rebuild datapath is serial, whatever FTMS_THREADS says.
  int Threads() const override { return 1; }

  DrillResult Drill(const DrillOptions& options) override {
    DrillResult r;
    for (size_t s = 0; s < std::size(kSchemes); ++s) {
      RunScheme(kSchemes[s], plans_[s], options, &r);
    }
    return r;
  }

  void Extras(const std::vector<DrillResult>& drills,
              MetricMap* out) const override {
    SchedulerExtras(drills, out);
    (*out)["rebuild_mb_per_s"] = {SumWork(drills, "rebuild_bytes") / 1e6 /
                                      SumWork(drills, "rebuild_s"),
                                  "MB/s"};
    (*out)["degraded_read_mb_per_s"] = {
        SumWork(drills, "degraded_verified_bytes") / 1e6 /
            SumWork(drills, "degraded_s"),
        "MB/s"};
  }

  void Layers(const TracedRun& run, MetricMap* out) override {
    SchedulerLayers(run, {"sr", "nc", "ib", "sr2"}, out);
    const auto self = run.spans.SelfNsByName("bench.run");
    const auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : static_cast<double>(it->second);
    };
    const DrillResult& first = run.traced.front();
    const double data_tracks = SumWork(run.traced, "rebuild_tracks");
    const double rebuild_mb_per_s = SumWork(run.traced, "rebuild_bytes") /
                                    1e6 / SumWork(run.traced, "rebuild_s");
    (*out)["rebuild.ns_per_track"] = {
        self_of("server.rebuild_advance") / data_tracks, "ns/track"};
    (*out)["rebuild.tracks_per_cycle"] = {
        first.work.at("rebuild_sim_tracks") /
            first.work.at("rebuild_cycles"),
        "tracks/cycle"};
    (*out)["rebuild.stall_share"] = {
        first.work.at("rebuild_stalls") / first.work.at("rebuild_cycles"),
        "share"};
    (*out)["rebuild.mb_per_s"] = {rebuild_mb_per_s, "MB/s"};
    (*out)["rebuild.data_tracks"] = {first.work.at("rebuild_tracks"),
                                     "count"};
    (*out)["verify.integrity_ns_per_track"] = {
        SumWork(run.traced, "integrity_ns") /
            SumWork(run.traced, "integrity_tracks"),
        "ns/track"};
    (*out)["qos.watchdog_ms"] = {
        self_of("qos.watchdog") / 1e6 / static_cast<double>(run.traced.size()),
        "ms/drill"};
    (*out)["qos.journal_events"] = {first.work.at("journal_events"),
                                    "count"};
    (*out)["util.metrics_render_ms"] = {
        self_of("util.metrics_render") / 1e6 /
            static_cast<double>(run.traced.size()),
        "ms/drill"};
    (*out)["util.timeseries_dump_ms"] = {
        self_of("util.timeseries_dump") / 1e6 /
            static_cast<double>(run.traced.size()),
        "ms/drill"};
    std::vector<double> with_sinks, without_sinks;
    for (const DrillResult& d : run.untraced) {
      with_sinks.insert(with_sinks.end(), d.step_ms.begin(), d.step_ms.end());
    }
    for (const DrillResult& d : run.variant) {
      without_sinks.insert(without_sinks.end(), d.step_ms.begin(),
                           d.step_ms.end());
    }
    (*out)["obs.overhead_ratio"] = {Median(with_sinks) / Median(without_sinks),
                                    "ratio"};

    // Calibration: the kernels and synthesis alone, at the drill's group
    // width and track size, beside the rebuild rate they feed.
    const double xor_gb = KernelRate(false);
    (*out)["parity.xor_gb_per_s"] = {xor_gb, "GB/s"};
    (*out)["parity.pq_gb_per_s"] = {KernelRate(true), "GB/s"};
    (*out)["parity.kernel_over_rebuild"] = {xor_gb * 1e3 / rebuild_mb_per_s,
                                            "ratio"};
    (*out)["verify.synthesize_mb_per_s"] = {SynthesizeRate(), "MB/s"};
  }

 private:
  static ftms::SystemParameters Params(const SchemeSpec& spec) {
    ftms::SystemParameters p;
    p.num_disks = spec.disks;
    p.k_reserve = std::min(3, spec.disks - 1);
    p.disk.capacity_mb = kDiskMb;
    return p;
  }

  // Output bytes per second of one fused fold over C-1 sources (XOR: a
  // reconstructed track) or C-2 sources (P+Q: one stripe's syndromes),
  // median of five 20 ms batches.
  static double KernelRate(bool pq) {
    const int nsrc = pq ? kGroup - 2 : kGroup - 1;
    std::vector<std::vector<uint8_t>> src(static_cast<size_t>(nsrc),
                                          std::vector<uint8_t>(kTrackBytes));
    std::vector<const uint8_t*> ptrs;
    for (size_t i = 0; i < src.size(); ++i) {
      for (size_t b = 0; b < kTrackBytes; ++b) {
        src[i][b] = static_cast<uint8_t>(b * 131 + i * 7);
      }
      ptrs.push_back(src[i].data());
    }
    std::vector<uint8_t> p(kTrackBytes), q(kTrackBytes);
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t calls = 0;
      const int64_t t0 = NowNs();
      int64_t t1 = t0;
      while (t1 - t0 < 20'000'000) {
        // The destinations accumulate across calls; only the time counts.
        for (int i = 0; i < 16; ++i) {
          if (pq) {
            ftms::PqGenerateN(p.data(), q.data(), ptrs.data(), nsrc,
                              kTrackBytes);
          } else {
            ftms::XorIntoN(p.data(), ptrs.data(), nsrc, kTrackBytes);
          }
        }
        calls += 16;
        t1 = NowNs();
      }
      rates.push_back(static_cast<double>(calls) * kTrackBytes /
                      static_cast<double>(t1 - t0));  // bytes/ns = GB/s
    }
    return Median(rates);
  }

  // Ground-truth synthesis of 50 KB tracks, MB/s.
  static double SynthesizeRate() {
    ftms::Block block;
    std::vector<double> rates;
    int64_t track = 0;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t calls = 0;
      const int64_t t0 = NowNs();
      int64_t t1 = t0;
      while (t1 - t0 < 20'000'000) {
        for (int i = 0; i < 16; ++i) {
          ftms::SynthesizeDataBlockInto(1, track++, kTrackBytes, &block);
        }
        calls += 16;
        t1 = NowNs();
      }
      rates.push_back(static_cast<double>(calls) * kTrackBytes * 1e3 /
                      static_cast<double>(t1 - t0));
    }
    return Median(rates);
  }

  // One cycle as MultimediaServer::RunCycles runs it: the schedule, then
  // the rebuild's share of the idle slots.
  void Cycle(Stack& st, SpanLog* spans, const std::string& key,
             bool degraded, DrillResult* r) {
    const int64_t verified = st.sched->metrics().verified_tracks;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(spans, "sched.cycle");
      st.sched->RunCycle();
    }
    const int64_t t1 = NowNs();
    const double checked =
        static_cast<double>(st.sched->metrics().verified_tracks - verified);
    {
      ScopedSpan span(spans, "server.rebuild_advance");
      st.rebuild->AdvanceOneCycle();
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    r->step_ms.push_back(ms);
    if (spans != nullptr) {
      r->dist[key + ".cycle_ms"].push_back(ms);
      if (degraded) r->dist["degraded_cycle_ms"].push_back(ms);
    }
    if (st.sched->config().verify_data) {
      r->work["integrity_ns"] += static_cast<double>(t1 - t0);
      r->work["integrity_tracks"] += checked;
      if (degraded) {
        r->work["degraded_s"] += static_cast<double>(t1 - t0) / 1e9;
        r->work["degraded_verified_bytes"] += checked * kIntegrityBlockBytes;
      }
    }
  }

  void RunScheme(const SchemeSpec& spec, const Plan& plan,
                 const DrillOptions& options, DrillResult* r) {
    SpanLog* spans = options.spans;
    const bool sinks = !options.variant;
    const std::string key = spec.key;
    const ftms::SystemParameters params = Params(spec);

    // ---- set-up: layout, disks, scheduler with sinks, rebuild manager,
    // catalog, and the admission-controlled light load.
    const int64_t setup_start = NowNs();
    Stack st;
    int admitted = 0;
    {
      ScopedSpan root(spans, "bench.setup");
      st.layout = std::move(
          ftms::CreateLayout(spec.scheme, spec.disks, kGroup).value());
      st.disks = std::make_unique<ftms::DiskArray>(std::move(
          ftms::DiskArray::Create(spec.disks, st.layout->disks_per_cluster(),
                                  params.disk)
              .value()));
      ftms::SchedulerConfig config;
      config.scheme = spec.scheme;
      config.parity_group_size = kGroup;
      config.object_rate_mb_s = params.object_rate_mb_s;
      config.disk = params.disk;
      config.buffer_servers = params.k_reserve;
      config.verify_data = spec.integrity;
      if (sinks) {
        st.ledger.set_journal(&st.journal);
        config.metrics = &st.registry;
        config.journal = &st.journal;
        config.ledger = &st.ledger;
        config.timeseries = &st.timeseries;
      }
      st.sched = std::move(
          ftms::CreateScheduler(config, st.disks.get(), st.layout.get())
              .value());
      st.rebuild = std::make_unique<ftms::RebuildManager>(
          st.disks.get(), st.layout.get(), st.sched.get());
      const ftms::Status attached =
          st.rebuild->AttachDataPath(0, plan.lengths[0], kTrackBytes);
      if (!attached.ok()) {
        r->errors.push_back(key + ": attach: " + attached.ToString());
        ++r->failed;
        return;
      }
      ftms::Catalog catalog(st.layout.get(), params.disk.TracksPerDisk());
      std::vector<ftms::MediaObject> objects;
      for (size_t i = 0; i < plan.lengths.size(); ++i) {
        ftms::MediaObject obj;
        obj.id = static_cast<int>(i);
        obj.rate_mb_s = params.object_rate_mb_s;
        obj.num_tracks = plan.lengths[i];
        const ftms::Status s = catalog.Add(obj);
        if (!s.ok()) {
          r->errors.push_back(key + ": catalog: " + s.ToString());
          ++r->failed;
          return;
        }
        objects.push_back(obj);
      }
      ftms::AdmissionController admission =
          std::move(ftms::AdmissionController::Create(params, spec.scheme,
                                                      kGroup)
                        .value());
      std::vector<double>* admit_us =
          spans != nullptr ? &r->dist["admit_us"] : nullptr;
      for (size_t i = 0; i < plan.requests.size(); ++i) {
        const int64_t t0 = admit_us != nullptr ? NowNs() : 0;
        ++r->attempted;
        if (!admission.Admit().ok() ||
            !st.sched->AddStream(objects[static_cast<size_t>(
                                     plan.requests[i])])
                 .ok()) {
          r->errors.push_back(key + ": light load refused at stream " +
                              std::to_string(i));
          ++r->failed;
          return;
        }
        if (admit_us != nullptr) {
          admit_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
        }
        ++admitted;
        ScopedSpan span(spans, "sched.stagger_cycle");
        st.sched->RunCycle();
      }
    }
    r->setup_s += static_cast<double>(NowNs() - setup_start) / 1e9;

    // ---- timed phase.
    const ftms::SchedulerMetrics before = st.sched->metrics();
    const int64_t bytes_before = st.rebuild->data_bytes_reconstructed();
    const int64_t tracks_before = st.rebuild->data_tracks_reconstructed();
    int64_t expected_tracks = 0;
    int64_t rebuild_cycles = 0, rebuild_stalls = 0, rebuild_sim_tracks = 0;
    double rebuild_s = 0;
    bool rebuild_incomplete = false;
    std::vector<ftms::ConformanceFinding> findings;
    const int64_t run_start = NowNs();
    {
      ScopedSpan root(spans, "bench.run");
      for (int i = 0; i < kHealthyCycles; ++i) Cycle(st, spans, key, false, r);
      for (size_t f = 0; f < plan.failed.size(); ++f) {
        {
          ScopedSpan span(spans, "sched.fail_disk");
          st.sched->OnDiskFailed(plan.failed[f], plan.mid_cycle);
        }
        Cycle(st, spans, key, true, r);
      }
      for (int i = 0; i < kGroup; ++i) Cycle(st, spans, key, true, r);
      for (int disk : plan.failed) {
        for (int64_t t = 0; t < plan.lengths[0]; ++t) {
          if (st.layout->DataLocation(0, t).disk == disk) ++expected_tracks;
        }
        {
          ScopedSpan span(spans, "server.start_rebuild");
          const ftms::Status s = st.rebuild->StartRebuild(disk);
          if (!s.ok()) {
            r->errors.push_back(key + ": rebuild of disk " +
                                std::to_string(disk) + ": " + s.ToString());
            ++r->failed;
            continue;
          }
        }
        const int64_t t0 = NowNs();
        int cycles = 0;
        while (st.rebuild->Active() && cycles < kRebuildCycleLimit) {
          const int64_t progress = st.rebuild->tracks_rebuilt();
          Cycle(st, spans, key, true, r);
          ++cycles;
          const int64_t gained =
              st.rebuild->Active()
                  ? st.rebuild->tracks_rebuilt() - progress
                  : st.rebuild->tracks_total() - progress;
          rebuild_sim_tracks += gained;
          if (gained == 0) ++rebuild_stalls;
        }
        rebuild_s += static_cast<double>(NowNs() - t0) / 1e9;
        rebuild_cycles += cycles;
        if (st.rebuild->Active()) rebuild_incomplete = true;
      }
      for (int i = 0; i < kSettleCycles; ++i) Cycle(st, spans, key, false, r);
      if (sinks) {
        {
          ScopedSpan span(spans, "qos.watchdog");
          findings = ftms::ConformanceWatchdog(st.sched.get(), &st.journal)
                         .Run();
        }
        {
          ScopedSpan span(spans, "util.metrics_render");
          r->work["prometheus_bytes"] +=
              static_cast<double>(st.registry.PrometheusText().size());
        }
        {
          ScopedSpan span(spans, "util.timeseries_dump");
          r->work["timeseries_bytes"] +=
              static_cast<double>(st.timeseries.ToJson().size());
        }
      }
    }
    r->run_s += static_cast<double>(NowNs() - run_start) / 1e9;

    // ---- checks.
    const ftms::SchedulerMetrics& m = st.sched->metrics();
    const int64_t rebuilt_tracks =
        st.rebuild->data_tracks_reconstructed() - tracks_before;
    const int64_t rebuilt_bytes =
        st.rebuild->data_bytes_reconstructed() - bytes_before;
    r->attempted += rebuilt_tracks + (m.verified_tracks - before.verified_tracks);
    const auto fail = [&](const std::string& what, int64_t n = 1) {
      r->errors.push_back(key + ": " + what);
      r->failed += n;
    };
    if (st.rebuild->data_mismatches() != 0) {
      fail(std::to_string(st.rebuild->data_mismatches()) +
               " rebuilt tracks mismatched or could not be reconstructed",
           st.rebuild->data_mismatches());
    }
    if (rebuilt_tracks != expected_tracks) {
      fail("rebuild regenerated " + std::to_string(rebuilt_tracks) +
           " of the attached object's " + std::to_string(expected_tracks) +
           " tracks on the failed disks");
    }
    if (rebuild_incomplete ||
        st.rebuild->rebuilds_completed() !=
            static_cast<int64_t>(plan.failed.size())) {
      fail("rebuild did not complete");
    }
    if (m.verify_failures != 0) {
      fail(std::to_string(m.verify_failures) +
               " integrity-mode tracks failed verification",
           m.verify_failures);
    }
    if (spec.integrity && m.verified_tracks == before.verified_tracks) {
      fail("integrity mode verified no track");
    }
    for (const ftms::ConformanceFinding& f : findings) {
      if (!f.ok) {
        fail("watchdog finding " + f.check + ": " + f.detail);
      }
    }

    r->work["reads"] += static_cast<double>(
        (m.data_reads + m.parity_reads + m.failed_reads) -
        (before.data_reads + before.parity_reads + before.failed_reads));
    r->work["hiccups"] += static_cast<double>(m.hiccups - before.hiccups);
    r->work["delivered"] +=
        static_cast<double>(m.tracks_delivered - before.tracks_delivered);
    r->work["rebuild_bytes"] += static_cast<double>(rebuilt_bytes);
    r->work["rebuild_tracks"] += static_cast<double>(rebuilt_tracks);
    r->work["rebuild_s"] += rebuild_s;
    r->work["rebuild_cycles"] += static_cast<double>(rebuild_cycles);
    r->work["rebuild_stalls"] += static_cast<double>(rebuild_stalls);
    r->work["rebuild_sim_tracks"] += static_cast<double>(rebuild_sim_tracks);
    r->work["admitted"] += admitted;
    r->work["journal_events"] += static_cast<double>(st.journal.size());

    auto count = [&](const char* name, double v) {
      r->counts.emplace_back(key + "." + name, v);
      r->work[std::string("sched.") + name] += v;
    };
    count("cycles", static_cast<double>(m.cycles));
    count("reads", static_cast<double>(m.data_reads + m.parity_reads +
                                       m.failed_reads));
    count("dropped_reads", static_cast<double>(m.dropped_reads));
    count("delivered", static_cast<double>(m.tracks_delivered));
    count("hiccups", static_cast<double>(m.hiccups));
    count("reconstructed", static_cast<double>(m.reconstructed));
    count("verified_tracks", static_cast<double>(m.verified_tracks));
    count("buffer_peak",
          static_cast<double>(st.sched->buffer_pool().peak_in_use()));
    count("rebuild_tracks", static_cast<double>(rebuilt_tracks));
    count("rebuild_bytes", static_cast<double>(rebuilt_bytes));
    count("rebuild_cycles", static_cast<double>(rebuild_cycles));
  }

  std::vector<Plan> plans_;
};

}  // namespace

std::unique_ptr<Workload> MakeRebuildDatapath(uint64_t seed) {
  return std::make_unique<RebuildDatapath>(seed);
}

}  // namespace perfbench
