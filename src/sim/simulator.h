// Deterministic discrete-event simulation kernel.
//
// A single-threaded event loop over a two-tier calendar/spill queue keyed
// by (time, sequence). The sequence tiebreak makes execution order — and
// thus every protocol run and every benchmark figure — a pure function of
// the configuration and seed. Events are stored as allocation-free
// sim::EventFn callables (see event_fn.h); the queue design and its
// determinism contract are documented in event_queue.h and
// docs/PERFORMANCE.md.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "sim/event_fn.h"
#include "sim/event_queue.h"

namespace dynastar::sim {

class Simulator {
 public:
  using Action = EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run at absolute simulated time `t`
  /// (clamped to `now` if in the past).
  void schedule_at(SimTime t, Action action);

  /// Schedules `action` to run `delay` after the current time.
  void schedule_after(SimTime delay, Action action);

  /// Executes the next pending event. Returns false when the queue is empty.
  bool step();

  /// Runs events until simulated time reaches `t` (events at exactly `t`
  /// are executed) or the queue drains.
  void run_until(SimTime t);

  /// Runs until the event queue is empty.
  void run();

  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dynastar::sim
