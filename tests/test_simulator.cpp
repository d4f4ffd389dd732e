// Unit tests: discrete-event kernel, network fault injection, and the
// process CPU-queue model.
#include <gtest/gtest.h>

#include "sim/process.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace dynastar::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  simulator.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  simulator.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), milliseconds(30));
}

TEST(Simulator, TiesBreakBySchedulingOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInPastClampsToNow) {
  Simulator simulator;
  bool ran = false;
  simulator.schedule_at(milliseconds(10), [&] {
    simulator.schedule_at(milliseconds(5), [&] { ran = true; });
  });
  simulator.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(simulator.now(), milliseconds(10));
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator simulator;
  simulator.run_until(seconds(5));
  EXPECT_EQ(simulator.now(), seconds(5));
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) simulator.schedule_after(microseconds(1), recurse);
  };
  simulator.schedule_after(0, recurse);
  simulator.run();
  EXPECT_EQ(depth, 100);
}

// Same-timestamp events must run in schedule (seq) order even when they are
// pushed into different tiers of the event queue: events beyond the wheel
// horizon (~67 ms) start in the coarse ring and cascade into the wheel as the
// cursor advances; cascading must not reorder them relative to events that
// were scheduled later but landed in the wheel directly.
TEST(Simulator, TiesBreakBySchedulingOrderAcrossQueueTiers) {
  Simulator simulator;
  std::vector<int> order;
  const SimTime far = milliseconds(500);  // well past the wheel horizon
  // First batch goes to the coarse ring (far future at schedule time).
  for (int i = 0; i < 5; ++i) {
    simulator.schedule_at(far, [&order, i] { order.push_back(i); });
  }
  // An intermediate event advances the cursor so `far` is inside the wheel
  // horizon when the second batch is scheduled.
  simulator.schedule_at(milliseconds(450), [&] {
    for (int i = 5; i < 10; ++i) {
      simulator.schedule_at(far, [&order, i] { order.push_back(i); });
    }
  });
  simulator.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(simulator.now(), far);
}

// Events scheduled for exactly now() from inside a running event land in the
// bucket currently being drained; they must still run this step, after any
// already-pending events at the same timestamp (seq order).
TEST(Simulator, ScheduleAtNowFromInsideRunningEvent) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(milliseconds(7), [&] {
    order.push_back(0);
    simulator.schedule_at(simulator.now(), [&] {
      order.push_back(2);
      simulator.schedule_at(simulator.now(), [&] { order.push_back(3); });
    });
  });
  simulator.schedule_at(milliseconds(7), [&] { order.push_back(1); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(simulator.now(), milliseconds(7));
}

// Past-time scheduling clamps to now() and still respects seq order among
// everything clamped to the same instant.
TEST(Simulator, PastTimeClampKeepsScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(milliseconds(10), [&] {
    simulator.schedule_at(milliseconds(3), [&] { order.push_back(0); });
    simulator.schedule_at(milliseconds(1), [&] { order.push_back(1); });
    simulator.schedule_at(simulator.now(), [&] { order.push_back(2); });
    simulator.schedule_at(milliseconds(2), [&] { order.push_back(3); });
  });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(simulator.now(), milliseconds(10));
}

// --- Process / network fixtures ---

class EchoProcess final : public Process {
 public:
  using Process::Process;
  void on_message(ProcessId from, const MessagePtr& msg) override {
    ++received;
    last_from = from;
    last = msg;
  }
  int received = 0;
  ProcessId last_from;
  MessagePtr last;
};

struct Ping final : Message {};

class SenderProcess final : public Process {
 public:
  SenderProcess(ProcessId id, World& world, ProcessId to, int count)
      : Process(id, world), to_(to), count_(count) {}
  void on_start() override {
    for (int i = 0; i < count_; ++i) send_message(to_, make_message<Ping>());
  }
  void on_message(ProcessId, const MessagePtr&) override {}

 private:
  ProcessId to_;
  int count_;
};

TEST(Network, DeliversWithLatency) {
  NetworkConfig net;
  net.base_latency = milliseconds(1);
  net.jitter = 0;
  World world(net, 1);
  auto& echo = world.spawn<EchoProcess>();
  world.spawn<SenderProcess>(echo.id(), 3);
  world.run_until(milliseconds(5));
  EXPECT_EQ(echo.received, 3);
}

TEST(Network, DropsMessagesWhenConfigured) {
  NetworkConfig net;
  net.drop_probability = 1.0;
  World world(net, 1);
  auto& echo = world.spawn<EchoProcess>();
  world.spawn<SenderProcess>(echo.id(), 10);
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 0);
  EXPECT_EQ(world.network().messages_dropped(), 10u);
}

TEST(Network, DuplicatesMessagesWhenConfigured) {
  NetworkConfig net;
  net.duplicate_probability = 1.0;
  World world(net, 1);
  auto& echo = world.spawn<EchoProcess>();
  world.spawn<SenderProcess>(echo.id(), 5);
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 10);
}

TEST(Network, BlockedLinksDrop) {
  World world({}, 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<SenderProcess>(echo.id(), 4);
  world.network().block_link(sender.id(), echo.id());
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 0);
  world.network().unblock_all();
}

TEST(Network, BlockedLinkKeysDoNotCollide) {
  // Regression: the blocked set used to key links as (from << 32) | to,
  // so a from id with bits above 2^32 aliased an unrelated low link
  // (e.g. {2^32 + 1} -> {0} collided with {1} -> {0}). Blocking the
  // high-id link must not affect the low-id one.
  World world({}, 1);
  auto& echo = world.spawn<EchoProcess>();          // id 0
  world.spawn<SenderProcess>(echo.id(), 4);         // id 1
  world.network().block_link(ProcessId{(1ull << 32) + 1}, echo.id());
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 4)
      << "blocking an unrelated high-id link dropped low-id traffic";
  world.network().unblock_all();
}

TEST(Network, BlockedLinksAreDirectional) {
  World world({}, 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<SenderProcess>(echo.id(), 4);
  world.network().block_link(echo.id(), sender.id());  // reverse direction
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 4);
  world.network().unblock_all();
}

TEST(Process, CrashedProcessReceivesNothing) {
  World world({}, 1);
  auto& echo = world.spawn<EchoProcess>();
  world.spawn<SenderProcess>(echo.id(), 4);
  world.crash(echo.id());
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 0);
  EXPECT_TRUE(echo.crashed());
  world.recover(echo.id());
  EXPECT_FALSE(echo.crashed());
}

class TimerProcess final : public Process {
 public:
  using Process::Process;
  void on_start() override {
    start_timer(milliseconds(10), [this] { ++fired; });
  }
  void on_message(ProcessId, const MessagePtr&) override {}
  int fired = 0;
};

TEST(Process, TimersCancelledByCrash) {
  World world({}, 1);
  auto& proc = world.spawn<TimerProcess>();
  world.run_until(milliseconds(1));
  world.crash(proc.id());
  world.run_until(milliseconds(50));
  EXPECT_EQ(proc.fired, 0);
}

TEST(Process, TimersFromOldIncarnationNeverFire) {
  World world({}, 1);
  auto& proc = world.spawn<TimerProcess>();
  world.run_until(milliseconds(1));
  world.crash(proc.id());
  world.recover(proc.id());  // on_recover does not rearm the timer
  world.run_until(milliseconds(50));
  EXPECT_EQ(proc.fired, 0);
}

class SlowProcess final : public Process {
 public:
  SlowProcess(ProcessId id, World& world) : Process(id, world) {
    set_message_service_time(milliseconds(10));
  }
  void on_message(ProcessId, const MessagePtr&) override {
    handled_at.push_back(now());
  }
  std::vector<SimTime> handled_at;
};

TEST(Process, MessagesQueueBehindServiceTime) {
  NetworkConfig net;
  net.base_latency = microseconds(1);
  net.jitter = 0;
  World world(net, 1);
  auto& slow = world.spawn<SlowProcess>();
  world.spawn<SenderProcess>(slow.id(), 3);
  world.run_until(seconds(1));
  ASSERT_EQ(slow.handled_at.size(), 3u);
  // Each message occupies the CPU for 10ms: handlers run 10ms apart.
  EXPECT_GE(slow.handled_at[1] - slow.handled_at[0], milliseconds(10));
  EXPECT_GE(slow.handled_at[2] - slow.handled_at[1], milliseconds(10));
}

class BusyProcess final : public Process {
 public:
  using Process::Process;
  void on_message(ProcessId, const MessagePtr&) override {
    handled_at.push_back(now());
    consume_cpu(milliseconds(20));  // expensive handler
  }
  std::vector<SimTime> handled_at;
};

TEST(Process, ConsumeCpuDelaysSubsequentMessages) {
  NetworkConfig net;
  net.base_latency = microseconds(1);
  net.jitter = 0;
  World world(net, 1);
  auto& busy = world.spawn<BusyProcess>();
  world.spawn<SenderProcess>(busy.id(), 2);
  world.run_until(seconds(1));
  ASSERT_EQ(busy.handled_at.size(), 2u);
  EXPECT_GE(busy.handled_at[1] - busy.handled_at[0], milliseconds(20));
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    NetworkConfig net;
    net.jitter = microseconds(50);
    World world(net, 42);
    auto& echo = world.spawn<EchoProcess>();
    world.spawn<SenderProcess>(echo.id(), 100);
    world.run_until(seconds(1));
    return world.sim().executed_events();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dynastar::sim
