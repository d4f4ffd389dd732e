// Cross-checks the two-tier calendar event queue against a reference single
// binary heap (the kernel's previous event storage). Bit-determinism of the
// whole simulator rests on the queue reproducing the exact (time, seq) total
// order, so these tests drive both structures with identical randomized
// schedules and demand identical pop sequences — including far-future spill
// traffic and wheel wrap-around.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace dynastar::sim {
namespace {

using Key = std::pair<SimTime, std::uint64_t>;

/// The pre-calendar-queue event storage: one binary min-heap on (time, seq).
class ReferenceHeap {
 public:
  void push(SimTime time, std::uint64_t seq) { heap_.push(Key{time, seq}); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  Key pop() {
    Key top = heap_.top();
    heap_.pop();
    return top;
  }

 private:
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
};

/// Drives EventQueue and ReferenceHeap with the same (time, seq) schedule
/// and checks the pop orders match element for element. Interleaves pushes
/// and pops the way the simulator does: pops advance a simulated clock, and
/// later pushes are clamped to it.
class QueueCrossCheck {
 public:
  void push(SimTime time) {
    time = std::max(time, now_);
    const std::uint64_t seq = next_seq_++;
    queue_.push(time, seq, [] {});
    reference_.push(time, seq);
  }

  /// Pops one event from both structures, asserts they agree, and advances
  /// the clock. Returns the popped key.
  Key pop_and_check() {
    EXPECT_FALSE(queue_.empty());
    EXPECT_FALSE(reference_.empty());
    Event event = queue_.pop();
    const Key expected = reference_.pop();
    EXPECT_EQ(event.time(), expected.first);
    EXPECT_EQ(event.seq(), expected.second);
    now_ = event.time();
    return expected;
  }

  void drain_and_check() {
    while (!reference_.empty()) pop_and_check();
    EXPECT_TRUE(queue_.empty());
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  EventQueue queue_;
  ReferenceHeap reference_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

constexpr SimTime kHorizon =
    static_cast<SimTime>(EventQueue::kNumBuckets) << EventQueue::kGranularityBits;

TEST(EventQueue, RandomizedScheduleMatchesReferenceHeap) {
  // 100k+ events with a latency spread shaped like the simulator's: mostly
  // near-future (link/service delays), a slice of mid-range timers, and a
  // tail of far-future events that exercises the spill heap.
  std::mt19937_64 rng(0xD15EA5E);
  QueueCrossCheck check;
  std::uniform_int_distribution<SimTime> near(0, microseconds(500));
  std::uniform_int_distribution<SimTime> mid(0, milliseconds(50));
  std::uniform_int_distribution<SimTime> far(0, milliseconds(400));
  std::uniform_int_distribution<int> shape(0, 99);
  std::uniform_int_distribution<int> burst(1, 8);

  int pushed = 0;
  const int kTotal = 120000;
  while (pushed < kTotal || check.pending() > 0) {
    if (pushed < kTotal) {
      const int n = burst(rng);
      for (int i = 0; i < n && pushed < kTotal; ++i, ++pushed) {
        const int s = shape(rng);
        SimTime delay;
        if (s < 80) {
          delay = near(rng);
        } else if (s < 95) {
          delay = mid(rng);
        } else {
          delay = far(rng);  // beyond the wheel horizon: spill path
        }
        check.push(check.now() + delay);
      }
    }
    // Pop a few so pushes interleave with cursor advances.
    for (int i = 0; i < 3 && check.pending() > 0; ++i) check.pop_and_check();
  }
  check.drain_and_check();
}

TEST(EventQueue, SameTimestampPopsInSeqOrderWithinAndAcrossTiers) {
  QueueCrossCheck check;
  // Duplicate timestamps on both sides of the horizon; seq must break ties.
  for (int round = 0; round < 50; ++round) {
    check.push(milliseconds(5));            // wheel
    check.push(milliseconds(5));            // wheel, same bucket
    check.push(milliseconds(400));          // spill (beyond horizon at t=0)
    check.push(milliseconds(400));          // spill, same timestamp
  }
  check.drain_and_check();
}

TEST(EventQueue, FarFutureSpillMigratesInOrder) {
  QueueCrossCheck check;
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<SimTime> far(kHorizon, 50 * kHorizon);
  // Everything starts in the spill heap; popping forces wheel-empty cursor
  // jumps and staged migration.
  for (int i = 0; i < 20000; ++i) check.push(far(rng));
  check.drain_and_check();
}

TEST(EventQueue, WheelWrapAroundKeepsOrder) {
  // March the clock across many multiples of the wheel span so bucket ring
  // indices wrap repeatedly while events are in flight.
  QueueCrossCheck check;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<SimTime> jitter(0, kHorizon / 2);
  for (int step = 0; step < 200; ++step) {
    // Advance roughly 3/4 of the wheel span per step.
    const SimTime base = static_cast<SimTime>(step) * (3 * kHorizon / 4);
    for (int i = 0; i < 50; ++i) check.push(base + jitter(rng));
    while (check.pending() > 30) check.pop_and_check();
  }
  check.drain_and_check();
}

TEST(EventQueue, PushAtCursorTickDuringDrain) {
  // Pushing at exactly the popped event's time (the simulator's
  // schedule-at-now case) lands in the bucket being drained and must pop
  // after existing same-time events (higher seq) but before later times.
  QueueCrossCheck check;
  for (int i = 0; i < 10; ++i) check.push(milliseconds(1));
  for (int i = 0; i < 10; ++i) check.push(milliseconds(2));
  for (int i = 0; i < 15; ++i) {
    const Key popped = check.pop_and_check();
    check.push(popped.first);  // clamped push at the current drain time
  }
  check.drain_and_check();
}

TEST(EventQueue, PushAfterRunUntilRunsBeforeLaterBuckets) {
  // run_until(t) only peeks at the next event, so the wheel cursor never
  // passes t. An event scheduled at t after it returns (a test or bench
  // poking a core between run_until calls) must run before events in later
  // buckets and in the spill heap, and the clock must never go backwards.
  constexpr SimTime kTick = SimTime{1} << EventQueue::kGranularityBits;
  Simulator sim;
  std::vector<std::pair<int, SimTime>> ran;
  auto record = [&](int id) {
    return [&ran, &sim, id] { ran.emplace_back(id, sim.now()); };
  };
  sim.schedule_at(5 * kTick, record(2));
  sim.schedule_at(3 * kHorizon, record(4));
  sim.run_until(kTick);
  EXPECT_EQ(sim.now(), kTick);
  sim.schedule_at(kTick, record(1));
  sim.run_until(2 * kHorizon);  // drains the wheel; the spill event remains
  sim.schedule_at(2 * kHorizon, record(3));
  sim.run();
  const std::vector<std::pair<int, SimTime>> expected = {
      {1, kTick}, {2, 5 * kTick}, {3, 2 * kHorizon}, {4, 3 * kHorizon}};
  EXPECT_EQ(ran, expected);
}

}  // namespace
}  // namespace dynastar::sim
