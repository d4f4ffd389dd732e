// Cross-checks the three-tier event queue (wheel, coarse ring, far heap)
// against a reference single binary heap (the kernel's original event
// storage). Bit-determinism of the whole simulator rests on the queue
// reproducing the exact (time, seq) total order, so these tests drive both
// structures with identical randomized schedules and demand identical pop
// sequences — including coarse-ring cascades, far-heap refills and wheel
// wrap-around — and run every popped action to check it is the one pushed
// with that key.
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
/// later pushes are clamped to it. Each pushed action records its own seq,
/// so a popped key carrying another event's action fails the check.
class QueueCrossCheck {
 public:
  void push(SimTime time) {
    time = std::max(time, now_);
    const std::uint64_t seq = next_seq_++;
    queue_.push(time, seq, [this, seq] { ran_ = seq; });
    reference_.push(time, seq);
  }

  /// Pops one event from both structures, asserts they agree, runs the
  /// popped action, and advances the clock. Returns the popped key.
  Key pop_and_check() {
    EXPECT_FALSE(queue_.empty());
    EXPECT_FALSE(reference_.empty());
    const Key expected = reference_.pop();
    EXPECT_EQ(queue_.next_time(), expected.first);
    Event event = queue_.pop();
    EXPECT_EQ(event.time(), expected.first);
    EXPECT_EQ(event.seq(), expected.second);
    ran_ = ~std::uint64_t{0};
    event.action();
    EXPECT_EQ(ran_, expected.second) << "popped key ran another action";
    now_ = event.time();
    return expected;
  }

  void drain_and_check() {
    while (!reference_.empty()) pop_and_check();
    EXPECT_TRUE(queue_.empty());
    EXPECT_TRUE(queue_.check_invariants());
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  EventQueue queue_;
  ReferenceHeap reference_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t ran_ = 0;
};

constexpr SimTime kTick = SimTime{1} << EventQueue::kGranularityBits;
// One wheel width: the span of one coarse slot.
constexpr SimTime kHorizon =
    static_cast<SimTime>(EventQueue::kNumBuckets) << EventQueue::kGranularityBits;
// The coarse ring's reach (~4.3 s); events beyond it go to the far heap.
constexpr SimTime kRingReach =
    static_cast<SimTime>(EventQueue::kCoarseSlots) * kHorizon;

TEST(EventQueue, RandomizedScheduleMatchesReferenceHeap) {
  // 100k+ events with a latency spread shaped like the simulator's: mostly
  // near-future (link/service delays), a slice of mid-range timers, a tail
  // of command-timeout-scale events for the coarse ring, and a sliver past
  // the ring's reach that exercises the far heap.
  std::mt19937_64 rng(0xD15EA5E);
  QueueCrossCheck check;
  std::uniform_int_distribution<SimTime> near(0, microseconds(500));
  std::uniform_int_distribution<SimTime> mid(0, milliseconds(50));
  std::uniform_int_distribution<SimTime> coarse(0, milliseconds(2000));
  std::uniform_int_distribution<SimTime> far(kRingReach, 3 * kRingReach);
  std::uniform_int_distribution<int> shape(0, 99);
  std::uniform_int_distribution<int> burst(1, 8);

  int pushed = 0;
  int rounds = 0;
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
        } else if (s < 99) {
          delay = coarse(rng);  // beyond the wheel horizon: coarse ring
        } else {
          delay = far(rng);  // beyond the ring's reach: far heap
        }
        check.push(check.now() + delay);
      }
    }
    // Pop a few so pushes interleave with cursor advances.
    for (int i = 0; i < 3 && check.pending() > 0; ++i) check.pop_and_check();
    if (++rounds % 4096 == 0) {
      ASSERT_TRUE(check.queue().check_invariants()) << "after round " << rounds;
    }
  }
  check.drain_and_check();
}

TEST(EventQueue, SameTimestampPopsInSeqOrderWithinAndAcrossTiers) {
  QueueCrossCheck check;
  // Duplicate timestamps on both sides of the horizon; seq must break ties.
  for (int round = 0; round < 50; ++round) {
    check.push(milliseconds(5));            // wheel
    check.push(milliseconds(5));            // wheel, same bucket
    check.push(milliseconds(400));          // coarse (beyond the wheel)
    check.push(milliseconds(400));          // coarse, same timestamp
    check.push(seconds(9));                 // far heap
    check.push(seconds(9));                 // far heap, same timestamp
  }
  check.drain_and_check();
}

TEST(EventQueue, FarFutureSpillMigratesInOrder) {
  QueueCrossCheck check;
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<SimTime> far(kHorizon, 200 * kHorizon);
  // Everything starts in the coarse ring or the far heap; popping forces
  // wheel-empty cursor jumps, ring cascades and far-heap refills.
  for (int i = 0; i < 20000; ++i) check.push(far(rng));
  EXPECT_TRUE(check.queue().check_invariants());
  check.drain_and_check();
}

TEST(EventQueue, EventsOnSpanBoundaries) {
  // Times exactly on a 4096-tick boundary (the first tick of a coarse
  // span), one nanosecond either side of it, and the last tick before it.
  QueueCrossCheck check;
  constexpr auto kSlots = static_cast<SimTime>(EventQueue::kCoarseSlots);
  for (SimTime span = 1; span <= 3 * kSlots; span += 7) {
    const SimTime boundary = span * kHorizon;
    check.push(boundary);
    check.push(boundary - 1);
    check.push(boundary + 1);
    check.push(boundary - kTick);
    check.push(boundary);
  }
  EXPECT_TRUE(check.queue().check_invariants());
  // Pop through a few boundaries, then push onto the next ones from the
  // new cursor position, where they fall in the wheel rather than the ring.
  for (int i = 0; i < 12; ++i) check.pop_and_check();
  const SimTime next_boundary = (check.now() / kHorizon + 1) * kHorizon;
  check.push(next_boundary);
  check.push(next_boundary + kHorizon);
  EXPECT_TRUE(check.queue().check_invariants());
  check.drain_and_check();
}

TEST(EventQueue, RingEventBeatsLaterWheelEventInTheNextSpan) {
  // With the cursor inside span 0, the wheel reaches into span 1 while an
  // earlier span-1 event pushed from t=0 waits in the ring. Both the peek
  // and the pop must find the ring event first.
  QueueCrossCheck check;
  check.push(2000 * kTick);
  check.push(4500 * kTick);  // span 1, beyond the wheel at t=0: ring
  check.pop_and_check();     // cursor moves to tick 2000
  check.push(5000 * kTick);  // span 1, within the wheel from tick 2000
  EXPECT_TRUE(check.queue().check_invariants());
  EXPECT_EQ(check.queue().next_time(), 4500 * kTick);
  check.drain_and_check();
}

TEST(EventQueue, CursorJumpsOverEmptyCoarseSlots) {
  // Sparse coarse occupancy: the cursor must skip the empty slots between
  // occupied ones, including a jump across more than the ring's reach.
  QueueCrossCheck check;
  check.push(3 * kHorizon + 5);
  check.push(40 * kHorizon + 7);
  check.push(63 * kHorizon);
  check.push(64 * kHorizon + kHorizon / 2);  // far heap at t=0
  check.push(1000 * kHorizon + 11);          // far, many spans past the rest
  EXPECT_TRUE(check.queue().check_invariants());
  check.pop_and_check();
  check.push(check.now() + 50 * kHorizon);  // coarse slot reused after wrap
  for (int i = 0; i < 3; ++i) {
    check.pop_and_check();
    EXPECT_TRUE(check.queue().check_invariants());
  }
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
  // buckets and in the coarse ring, and the clock must never go backwards.
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
  sim.run_until(2 * kHorizon);  // drains the wheel; the ring event remains
  sim.schedule_at(2 * kHorizon, record(3));
  sim.run();
  const std::vector<std::pair<int, SimTime>> expected = {
      {1, kTick}, {2, 5 * kTick}, {3, 2 * kHorizon}, {4, 3 * kHorizon}};
  EXPECT_EQ(ran, expected);
}

TEST(EventQueue, PushAtRunUntilStopJustShortOfCoarseBoundary) {
  // run_until(t) stops one nanosecond before a coarse span boundary while
  // the next event waits in that span's ring slot. next_time() must see the
  // ring (the wheel is empty), the cursor must not cascade past t, and an
  // event pushed at t afterwards runs first.
  Simulator sim;
  std::vector<std::pair<int, SimTime>> ran;
  auto record = [&](int id) {
    return [&ran, &sim, id] { ran.emplace_back(id, sim.now()); };
  };
  const SimTime boundary = 2 * kHorizon;
  sim.schedule_at(boundary, record(2));
  sim.schedule_at(boundary + kHorizon, record(3));
  sim.run_until(boundary - 1);
  EXPECT_EQ(sim.now(), boundary - 1);
  EXPECT_TRUE(ran.empty());
  sim.schedule_at(boundary - 1, record(1));
  sim.run_until(boundary - 1);
  sim.run();
  const std::vector<std::pair<int, SimTime>> expected = {
      {1, boundary - 1}, {2, boundary}, {3, boundary + kHorizon}};
  EXPECT_EQ(ran, expected);
}

TEST(EventQueue, MillionEventChurnBoundsSlabByPeakPending) {
  // A steady population of self-rescheduling events: every popped action
  // pushes its successor, so freed slots must be reused and the slab never
  // grows past the peak number of pending events.
  constexpr std::size_t kPending = 4096;
  constexpr std::uint64_t kEvents = 1'000'000;
  EventQueue queue;
  std::mt19937_64 rng(99);
  std::uint64_t seq = 0;
  std::uint64_t ran = 0;
  auto push = [&](SimTime now) {
    const std::uint64_t shape = rng() % 100;
    const SimTime delay = shape < 90   ? static_cast<SimTime>(rng() % 500'000)
                          : shape < 99 ? static_cast<SimTime>(rng() % seconds(2))
                                       : seconds(5);
    queue.push(now + delay, seq++, [&ran] { ++ran; });
  };
  for (std::size_t i = 0; i < kPending; ++i) push(0);
  std::size_t peak = queue.size();
  SimTime last = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    Event event = queue.pop();
    ASSERT_GE(event.time(), last);
    last = event.time();
    event.action();
    push(last);
    peak = std::max(peak, queue.size());
  }
  EXPECT_EQ(ran, kEvents);
  EXPECT_EQ(queue.size(), kPending);
  EXPECT_LE(queue.slab_slots(), peak);
  EXPECT_TRUE(queue.check_invariants());
}

}  // namespace
}  // namespace dynastar::sim
