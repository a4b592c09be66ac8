#ifndef FTMS_SIM_SIMULATOR_H_
#define FTMS_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/profiler.h"

namespace ftms {

// Simulated time, in seconds.
using SimTime = double;

// A minimal discrete-event simulation engine.
//
// Events are closures scheduled at absolute simulated times. Ties are broken
// by insertion order (FIFO), which makes simulations fully deterministic.
// The multimedia-server simulation advances in fixed-length scheduling
// cycles, while the reliability simulations schedule exponentially
// distributed failure/repair events; both run on this engine.
//
// The pending set is one binary heap (std::push_heap/pop_heap over a
// vector) ordered by (time, seq). A server simulation carries about one
// event per scheduling cycle, so the engine is a negligible share of a run
// next to the cycle's disk reads; see DESIGN.md §11.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time. Starts at 0.
  SimTime Now() const { return now_; }

  // Schedules `cb` to run `delay` seconds from now. Negative delays clamp
  // to "now" (the event still runs after currently pending events at the
  // same timestamp that were scheduled earlier).
  void Schedule(SimTime delay, Callback cb) {
    ScheduleAt(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  // Schedules `cb` at absolute time `t`, clamped to Now(). A NaN time
  // clamps to Now() too: it would break the heap's strict weak order.
  void ScheduleAt(SimTime t, Callback cb) {
    FTMS_PROF_SCOPE("sim/queue/push");
    heap_.push_back(EventRec{t > now_ ? t : now_, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  // Runs the next pending event, advancing the clock. Returns false when
  // no events remain. A direct Step() is a serial sync point: bound
  // instruments are brought up to date before it returns.
  bool Step() {
    const bool ran = StepNoFlush();
    FlushInstruments();
    return ran;
  }

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamp <= `t`, then advances the clock to exactly
  // `t` (even if the next pending event is later).
  void RunUntil(SimTime t);

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  // Optional observability sinks (null = off; must outlive the simulator).
  // `events` counts processed events; `pending` tracks the queue size.
  // Updated at serial sync points (Step/Run/RunUntil boundaries), not per
  // event — the per-event relaxed-atomic traffic showed up in profiles.
  void BindInstruments(class Counter* events, class Gauge* pending) {
    events_counter_ = events;
    pending_gauge_ = pending;
    events_flushed_ = events_processed_;
  }

  // Optional QoS journal (null = off). Each completed Run()/RunUntil()
  // appends one kSimHorizon event carrying the final clock and the number
  // of events processed — a serial point, so the journal stays
  // deterministic.
  void BindJournal(class EventJournal* journal) { journal_ = journal; }

  // Optional telemetry hub (null = off). Every FlushInstruments — i.e.
  // every Step/Run/RunUntil boundary, the engine's serial sync points —
  // publishes a fresh snapshot for live scrapes (see telemetry/).
  void BindTelemetry(class TelemetryHub* hub) { telemetry_ = hub; }

 private:
  // One pending event: absolute time, FIFO tie-break sequence, callback.
  struct EventRec {
    SimTime time = 0;
    uint64_t seq = 0;
    Callback cb;
  };

  // The event order is (time, seq); std::*_heap build a max-heap by their
  // comparator, so inverting that order puts the earliest event in front.
  static bool Later(const EventRec& a, const EventRec& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  bool StepNoFlush() {
    Callback cb;
    {
      FTMS_PROF_SCOPE("sim/queue/pop");
      if (heap_.empty()) return false;
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      now_ = heap_.back().time;
      cb = std::move(heap_.back().cb);
      heap_.pop_back();
    }
    ++events_processed_;
    cb();
    return true;
  }

  void FlushInstruments();
  void JournalHorizon();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t events_flushed_ = 0;  // counted into events_counter_ so far

  std::vector<EventRec> heap_;
  // Fire-and-forget timers created by SchedulePeriodic; owned here so a
  // simulator destroyed with ticks still queued leaks nothing.
  std::vector<std::unique_ptr<class PeriodicTimer>> owned_timers_;
  class Counter* events_counter_ = nullptr;
  class Gauge* pending_gauge_ = nullptr;
  class EventJournal* journal_ = nullptr;
  class TelemetryHub* telemetry_ = nullptr;

  friend void SchedulePeriodic(Simulator&, SimTime, SimTime,
                               std::function<bool()>);
};

// A self-rescheduling periodic process: fires `tick` every `period`
// seconds until it returns false or Cancel() is called. Each firing
// schedules the next one with a one-pointer `[this]` capture, which fits
// std::function's local buffer, so a steady periodic process allocates
// nothing per tick.
//
// The tick runs BEFORE the next firing is scheduled, so the next event's
// sequence number is larger than those of any events the tick itself
// scheduled — exactly the legacy ordering, preserved for determinism.
//
// The timer must outlive its queued event (keep it alive until the
// simulator is done, or Cancel() it and run the queue dry). For
// fire-and-forget use, SchedulePeriodic below parks the timer in the
// simulator, which owns it for the rest of the simulation.
class PeriodicTimer {
 public:
  using Tick = std::function<bool()>;

  PeriodicTimer(Simulator* sim, SimTime period, Tick tick)
      : sim_(sim), period_(period), tick_(std::move(tick)) {}
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  // Schedules the first firing at absolute time `start` (clamped to now).
  void Start(SimTime start) {
    active_ = true;
    sim_->ScheduleAt(start, [this] { Fire(); });
  }

  // Stops the timer: the already queued firing becomes a no-op. Idempotent.
  void Cancel() { active_ = false; }

  bool active() const { return active_; }

 private:
  void Fire() {
    if (!active_) return;
    if (!tick_()) {
      active_ = false;
      return;
    }
    sim_->Schedule(period_, [this] { Fire(); });
  }

  Simulator* sim_;
  SimTime period_;
  Tick tick_;
  bool active_ = false;
};

// Convenience: schedules `cb` to run every `period` seconds, starting at
// `start`, until it returns false. Cancellation is by return value of the
// callback; the simulator owns the underlying timer. For external
// cancellation, own a PeriodicTimer directly.
void SchedulePeriodic(Simulator& sim, SimTime start, SimTime period,
                      std::function<bool()> cb);

}  // namespace ftms

#endif  // FTMS_SIM_SIMULATOR_H_
