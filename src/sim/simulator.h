// Deterministic discrete-event simulation kernel.
//
// A single-threaded event loop over a three-tier wheel/ring/heap queue
// keyed by (time, sequence). The sequence tiebreak makes execution order —
// and thus every protocol run and every benchmark figure — a pure function
// of the configuration and seed. Events are stored as allocation-free
// sim::EventFn callables (see event_fn.h), moved once into the queue's slab
// and once out; the queue design and its determinism contract are
// documented in event_queue.h and docs/PERFORMANCE.md.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

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
  void schedule_at(SimTime t, Action&& action) {
    if (t < now_) t = now_;
    queue_.push(t, next_seq_++, std::move(action));
  }

  /// Schedules `action` to run `delay` after the current time.
  void schedule_after(SimTime delay, Action&& action) {
    assert(delay >= 0);
    schedule_at(now_ + delay, std::move(action));
  }

  /// Executes the next pending event. Returns false when the queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.pop();
    now_ = ev.time();
    ++executed_;
    ev.action();
    return true;
  }

  /// Runs events until simulated time reaches `t` (events at exactly `t`
  /// are executed) or the queue drains.
  void run_until(SimTime t) {
    while (!queue_.empty() && queue_.next_time() <= t) step();
    if (now_ < t) now_ = t;
  }

  /// Runs until the event queue is empty.
  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dynastar::sim
