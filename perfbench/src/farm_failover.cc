// farm_failover: the paper's failure-masking drill at farm scale.
//
// D = 1000 disks, C = 5, each of the six schemes in turn (SR, SG, NC, IB,
// SR-2, NC-2). Per scheme, set-up builds a MultimediaServer, stages the
// catalog and offers stream requests in waves of one request per cluster
// per cycle until the AdmissionController refuses one. The timed phase
// is a healthy stretch, a seeded failure (two disks of one cluster for
// the dual-parity schemes), a degraded stretch, repair and recovery. A
// Simulator carries the cycle clock as one periodic event; the failure
// and repair events run beside it. Observability sinks are off. No bytes
// move: the scheduler's cycle loop does nearly all the work.
//
// It runs the schedulers on one thread unless FTMS_THREADS says otherwise
// (see Workload::Threads); the traced run reports what the default pool
// of one worker per core costs a cycle as sched.pool_over_serial.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "harness.h"
#include "model/buffers.h"
#include "model/capacity.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "stream/admission.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using ftms::Scheme;

constexpr int kDisks = 1000;
constexpr int kGroup = 5;              // C
constexpr int kObjects = 800;          // catalog size
constexpr int64_t kMinTracks = 3000;   // object lengths: long enough that
constexpr int64_t kMaxTracks = 9000;   // no stream ends inside a drill
constexpr double kZipfTheta = 0.729;   // P ~ 1/r^0.729 (the classic 0.271 skew)
constexpr int kRequests = 16000;       // more than any scheme admits
// Timed cycles per scheme: the failure lands at a seeded cycle in
// [8, 16), the repair kDegradedCycles later, and recovery runs to the end,
// so every seed times the same number of cycles.
constexpr int kTimedCycles = 56;
constexpr int kDegradedCycles = 30;

struct SchemeSpec {
  Scheme scheme;
  const char* key;  // metric prefix
};
constexpr SchemeSpec kSchemes[] = {
    {Scheme::kStreamingRaid, "sr"},      {Scheme::kStaggeredGroup, "sg"},
    {Scheme::kNonClustered, "nc"},       {Scheme::kImprovedBandwidth, "ib"},
    {Scheme::kStreamingRaid2, "sr2"},    {Scheme::kNonClustered2, "nc2"},
};

// Seeded failure of one scheme's drill.
struct FailurePlan {
  int disk = 0;           // first failed disk
  int second_offset = 1;  // dual parity: cluster-mate offset of the second
  int healthy_cycles = 0;
  bool mid_cycle = false;
};

class FarmFailover : public Workload {
 public:
  explicit FarmFailover(uint64_t seed) {
    // MultimediaServer takes its thread count from the environment; set it
    // before the shared pool is first built. A caller's setting wins.
    setenv("FTMS_THREADS", "1", /*overwrite=*/0);
    InputRng rng(seed);
    for (int i = 0; i < kObjects; ++i) {
      lengths_.push_back(kMinTracks + rng.Below(kMaxTracks - kMinTracks + 1));
    }
    // Popularity rank -> object id, shuffled so popular objects land on
    // arbitrary home clusters.
    std::vector<int> by_rank(kObjects);
    for (int i = 0; i < kObjects; ++i) by_rank[static_cast<size_t>(i)] = i;
    for (int i = kObjects - 1; i > 0; --i) {
      std::swap(by_rank[static_cast<size_t>(i)],
                by_rank[static_cast<size_t>(rng.Below(i + 1))]);
    }
    const Zipf zipf(kObjects, kZipfTheta);
    for (int i = 0; i < kRequests; ++i) {
      requests_.push_back(by_rank[static_cast<size_t>(zipf.Sample(rng))]);
    }
    for (size_t s = 0; s < std::size(kSchemes); ++s) {
      FailurePlan plan;
      plan.disk = static_cast<int>(rng.Below(kDisks));
      plan.second_offset = 1 + static_cast<int>(rng.Below(kGroup - 1));
      plan.healthy_cycles = 8 + static_cast<int>(rng.Below(8));
      plan.mid_cycle = rng.Below(2) == 1;
      plans_.push_back(plan);
    }
  }

  DrillResult Drill(const DrillOptions& options) override {
    DrillResult r;
    for (size_t s = 0; s < std::size(kSchemes); ++s) {
      RunScheme(kSchemes[s], plans_[s], options.spans, &r);
    }
    return r;
  }

  int Threads() const override {
    return ftms::ThreadPool::DefaultThreadCount();
  }

  void Extras(const std::vector<DrillResult>& drills,
              MetricMap* out) const override {
    SchedulerExtras(drills, out);
  }

  void Layers(const TracedRun& run, MetricMap* out) override {
    SchedulerLayers(run, {"sr", "sg", "nc", "ib", "sr2", "nc2"}, out);
    const DrillResult& first = run.traced.front();
    for (const SchemeSpec& spec : kSchemes) {
      const std::string k = spec.key;
      (*out)["buffer." + k + ".peak_tracks"] = {
          first.work.at(k + ".buffer_peak"), "tracks"};
      (*out)["buffer." + k + ".peak_over_eq"] = {
          first.work.at(k + ".buffer_peak_over_eq"), "ratio"};
    }
    (*out)["stream.refused"] = {first.work.at("refused"), "count"};
    (*out)["sim.events"] = {first.work.at("sim_events"), "count"};
    (*out)["sim.self_ns_per_event"] = {
        static_cast<double>(SelfNsWithPrefix(run.spans, "sim.")) /
            SumWork(run.traced, "sim_events"),
        "ns/event"};
    (*out)["sched.pool_over_serial"] = {PoolOverSerial(), "ratio"};
  }

 private:
  // Median SR cycle at D = 1000 and full admission on a private pool of
  // one worker per core, over the same on one thread (three alternating
  // rounds of 30 cycles; objects round-robin over the clusters).
  static double PoolOverSerial() {
    const int workers =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    ftms::SystemParameters p;
    p.num_disks = kDisks;
    const int streams = ftms::AdmissionController::Create(
                            p, Scheme::kStreamingRaid, kGroup)
                            ->capacity();
    std::vector<double> pooled, serial;
    for (int round = 0; round < 3; ++round) {
      for (int threads : {workers, 1}) {
        auto layout = std::move(
            ftms::CreateLayout(Scheme::kStreamingRaid, kDisks, kGroup)
                .value());
        auto disks = std::move(ftms::DiskArray::Create(
                                   kDisks, layout->disks_per_cluster(),
                                   p.disk)
                                   .value());
        ftms::SchedulerConfig config;
        config.scheme = Scheme::kStreamingRaid;
        config.parity_group_size = kGroup;
        config.threads = threads;
        auto sched = std::move(
            ftms::CreateScheduler(config, &disks, layout.get()).value());
        for (int i = 0; i < streams; ++i) {
          ftms::MediaObject obj;
          obj.id = i % layout->num_clusters();
          obj.num_tracks = kMaxTracks;
          sched->AddStream(obj).ok();
        }
        sched->RunCycles(2);
        std::vector<double> cycles;
        for (int c = 0; c < 30; ++c) {
          const int64_t t0 = NowNs();
          sched->RunCycle();
          cycles.push_back(static_cast<double>(NowNs() - t0));
        }
        (threads == 1 ? serial : pooled).push_back(Median(cycles));
      }
    }
    return Median(pooled) / Median(serial);
  }

  void RunScheme(const SchemeSpec& spec, const FailurePlan& plan,
                 SpanLog* spans, DrillResult* r) {
    const std::string key = spec.key;
    // ---- set-up: server, catalog, admission (with the stagger cycles).
    const int64_t setup_start = NowNs();
    std::unique_ptr<ftms::MultimediaServer> server;
    int admitted = 0;
    {
      ScopedSpan root(spans, "bench.setup");
      ftms::ServerConfig config;
      config.scheme = spec.scheme;
      config.parity_group_size = kGroup;
      config.params.num_disks = kDisks;
      config.telemetry_port = -1;
      {
        ScopedSpan span(spans, "server.create");
        auto created = ftms::MultimediaServer::Create(config);
        if (!created.ok()) {
          r->errors.push_back(key + ": server: " +
                              created.status().ToString());
          ++r->failed;
          return;
        }
        server = std::move(*created);
      }
      {
        ScopedSpan span(spans, "server.add_objects");
        for (int i = 0; i < kObjects; ++i) {
          ftms::MediaObject obj;
          obj.id = i;
          obj.rate_mb_s = config.params.object_rate_mb_s;
          obj.num_tracks = lengths_[static_cast<size_t>(i)];
          const ftms::Status s = server->AddObject(obj);
          if (!s.ok()) {
            r->errors.push_back(key + ": catalog: " + s.ToString());
            ++r->failed;
            return;
          }
        }
      }
      // Requests arrive one per cluster per cycle, so that streams on
      // the same object start at different group positions.
      const int wave = server->layout().num_clusters();
      ftms::Status refusal;
      std::vector<double>* admit_us =
          spans != nullptr ? &r->dist["admit_us"] : nullptr;
      size_t next = 0;
      while (refusal.ok()) {
        {
          ScopedSpan span(spans, "stream.admit_wave");
          for (int i = 0; i < wave && next < requests_.size(); ++i) {
            const int64_t t0 = admit_us != nullptr ? NowNs() : 0;
            auto id = server->StartStream(requests_[next++]);
            if (admit_us != nullptr) {
              admit_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
            }
            if (!id.ok()) {
              refusal = id.status();
              break;
            }
            ++admitted;
          }
        }
        if (next >= requests_.size() && refusal.ok()) break;
        if (refusal.ok()) {
          ScopedSpan span(spans, "sched.stagger_cycle");
          server->RunCycles(1);
        }
      }
      ++r->attempted;
      if (refusal.code() != ftms::StatusCode::kResourceExhausted ||
          admitted != server->admission().capacity()) {
        r->errors.push_back(key + ": admission stopped at " +
                            std::to_string(admitted) + " of capacity " +
                            std::to_string(server->admission().capacity()) +
                            " (" + refusal.ToString() + ")");
        ++r->failed;
      }
    }
    r->setup_s += static_cast<double>(NowNs() - setup_start) / 1e9;

    // ---- timed phase: healthy, failure, degraded, repair, recovery.
    ftms::CycleScheduler& sched = server->scheduler();
    const ftms::SchedulerMetrics before = sched.metrics();
    const int cluster_size = server->layout().disks_per_cluster();
    const int dual = ftms::IsDualParity(spec.scheme) ? 1 : 0;
    const int base = plan.disk - plan.disk % cluster_size;
    const int second =
        base + (plan.disk % cluster_size + plan.second_offset) % cluster_size;
    const int total_cycles = kTimedCycles;
    const double cycle_s = sched.CycleSeconds();
    int cycles_run = 0;
    bool degraded = false;
    std::vector<double>* scheme_ms =
        spans != nullptr ? &r->dist[key + ".cycle_ms"] : nullptr;
    std::vector<double>* degraded_ms =
        spans != nullptr ? &r->dist["degraded_cycle_ms"] : nullptr;

    const int64_t run_start = NowNs();
    uint64_t events = 0;
    {
      ScopedSpan root(spans, "bench.run");
      ftms::Simulator sim;
      ftms::SchedulePeriodic(sim, 0.0, cycle_s, [&] {
        const int64_t t0 = NowNs();
        {
          ScopedSpan span(spans, "sched.cycle");
          sched.RunCycle();
        }
        const double ms = static_cast<double>(NowNs() - t0) / 1e6;
        r->step_ms.push_back(ms);
        if (scheme_ms != nullptr) scheme_ms->push_back(ms);
        if (degraded_ms != nullptr && degraded) degraded_ms->push_back(ms);
        return ++cycles_run < total_cycles;
      });
      sim.ScheduleAt((plan.healthy_cycles - 0.5) * cycle_s, [&] {
        ScopedSpan span(spans, "server.fail_disk");
        degraded = true;
        server->FailDisk(plan.disk, plan.mid_cycle).ok();
      });
      if (dual != 0) {
        sim.ScheduleAt((plan.healthy_cycles + 0.5) * cycle_s, [&] {
          ScopedSpan span(spans, "server.fail_disk");
          server->FailDisk(second, plan.mid_cycle).ok();
        });
      }
      sim.ScheduleAt(
          (plan.healthy_cycles + kDegradedCycles - 0.5) * cycle_s, [&] {
            ScopedSpan span(spans, "server.repair_disk");
            degraded = false;
            server->RepairDisk(plan.disk).ok();
            if (dual != 0) server->RepairDisk(second).ok();
          });
      while (true) {
        ScopedSpan span(spans, "sim.step");
        if (!sim.Step()) break;
      }
      events = sim.events_processed();
    }
    r->run_s += static_cast<double>(NowNs() - run_start) / 1e9;

    // ---- outputs and checks.
    const ftms::SchedulerMetrics& m = sched.metrics();
    int64_t stream_delivered = 0, stream_hiccups = 0;
    for (const auto& stream : sched.streams()) {
      stream_delivered += stream->delivered_tracks();
      stream_hiccups += stream->hiccup_count();
    }
    r->attempted += 3;
    if (stream_delivered != m.tracks_delivered ||
        stream_hiccups != m.hiccups) {
      r->errors.push_back(key + ": per-stream totals disagree with the "
                                "scheduler counters");
      ++r->failed;
    }
    if (cycles_run != total_cycles) {
      r->errors.push_back(key + ": ran " + std::to_string(cycles_run) +
                          " of " + std::to_string(total_cycles) + " cycles");
      ++r->failed;
    }
    if (!server->disks().disk(plan.disk).operational() ||
        !server->disks().disk(second).operational()) {
      r->errors.push_back(key + ": failed disk not operational after repair");
      ++r->failed;
    }

    const int64_t reads = (m.data_reads + m.parity_reads + m.failed_reads) -
                          (before.data_reads + before.parity_reads +
                           before.failed_reads);
    r->work["reads"] += static_cast<double>(reads);
    r->work["hiccups"] += static_cast<double>(m.hiccups - before.hiccups);
    r->work["delivered"] +=
        static_cast<double>(m.tracks_delivered - before.tracks_delivered);
    r->work["sim_events"] += static_cast<double>(events);
    r->work["admitted"] += admitted;
    r->work["refused"] += 1;
    const double peak =
        static_cast<double>(sched.buffer_pool().peak_in_use());
    ftms::SystemParameters p = server->config().params;
    const double eq = ftms::TotalBufferTracks(p, spec.scheme, kGroup)
                          .value_or(0) *
                      admitted /
                      ftms::MaxStreams(p, spec.scheme, kGroup).value_or(1);
    r->work[key + ".buffer_peak"] = peak;
    r->work[key + ".buffer_peak_over_eq"] = eq > 0 ? peak / eq : 0;

    auto count = [&](const char* name, double v) {
      r->counts.emplace_back(key + "." + name, v);
      r->work[std::string("sched.") + name] += v;  // all-scheme totals
    };
    count("admitted", admitted);
    count("cycles", static_cast<double>(m.cycles));
    count("reads", static_cast<double>(m.data_reads + m.parity_reads +
                                       m.failed_reads));
    count("dropped_reads", static_cast<double>(m.dropped_reads));
    count("delivered", static_cast<double>(m.tracks_delivered));
    count("hiccups", static_cast<double>(m.hiccups));
    count("reconstructed", static_cast<double>(m.reconstructed));
    count("buffer_peak", peak);
    count("sim_events", static_cast<double>(events));
  }

  std::vector<int64_t> lengths_;
  std::vector<int> requests_;
  std::vector<FailurePlan> plans_;
};

}  // namespace

std::unique_ptr<Workload> MakeFarmFailover(uint64_t seed) {
  return std::make_unique<FarmFailover>(seed);
}

}  // namespace perfbench
