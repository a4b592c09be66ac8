#include "sim/simulator.h"

#include <cassert>

#include "qos/event_journal.h"
#include "telemetry/telemetry_server.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace ftms {

Simulator::~Simulator() = default;

void Simulator::Run() {
  {
    FTMS_PROF_SCOPE("sim/run");
    while (StepNoFlush()) {
    }
  }
  FlushInstruments();
  JournalHorizon();
}

void Simulator::RunUntil(SimTime t) {
  {
    FTMS_PROF_SCOPE("sim/run");
    while (!heap_.empty() && heap_.front().time <= t) {
      StepNoFlush();
    }
  }
  if (t > now_) now_ = t;
  FlushInstruments();
  JournalHorizon();
}

void Simulator::FlushInstruments() {
  // A flush is a serial sync point for every observability sink, so fold
  // the worker-thread profiler trees here too.
  if (Profiler::GlobalEnabled()) Profiler::FoldAtSyncPoint();
  if (events_counter_ != nullptr && events_processed_ != events_flushed_) {
    events_counter_->Add(
        static_cast<int64_t>(events_processed_ - events_flushed_));
    events_flushed_ = events_processed_;
  }
  if (pending_gauge_ != nullptr) {
    pending_gauge_->Set(static_cast<double>(heap_.size()));
  }
  if (telemetry_ != nullptr) {
    telemetry_->Publish(static_cast<int64_t>(now_ * 1e6));
  }
}

void Simulator::JournalHorizon() {
  if (journal_ == nullptr) return;
  QosEvent event;
  event.kind = QosEventKind::kSimHorizon;
  event.scheme = "sim";
  event.sim_us = static_cast<int64_t>(now_ * 1e6);
  event.value = static_cast<int64_t>(events_processed_);
  journal_->Append(event);
}

void SchedulePeriodic(Simulator& sim, SimTime start, SimTime period,
                      std::function<bool()> cb) {
  assert(period > 0);
  auto timer = std::make_unique<PeriodicTimer>(&sim, period, std::move(cb));
  timer->Start(start);
  sim.owned_timers_.push_back(std::move(timer));
}

}  // namespace ftms
