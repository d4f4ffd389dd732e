// Process: base class for every simulated node (replica, acceptor, client,
// oracle replica, ...). Implements the Env interface for protocol cores and
// models the node as a single-server queue: each incoming message occupies
// the node's CPU for a service time, and handlers can charge extra work via
// consume_cpu(). Queueing is what produces realistic saturation — and thus
// the "peak throughput" numbers the benchmark figures report.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/ids.h"
#include "common/rng.h"
#include "sim/env.h"
#include "sim/message.h"
#include "sim/world.h"

namespace dynastar::sim {

class Process : public Env {
 public:
  Process(ProcessId id, World& world)
      : Env(world.trace(), world.metrics()),
        id_(id),
        world_(world),
        rng_(world.fork_rng()) {}
  ~Process() override = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Called once when the world starts running.
  virtual void on_start() {}
  /// Handles one message; runs after the message waited in the CPU queue.
  virtual void on_message(ProcessId from, const MessagePtr& msg) = 0;
  /// Called when the process crashes; volatile state should be dropped here.
  virtual void on_crash() {}
  /// Called when a crashed process restarts (new incarnation; timers and
  /// queued messages from the previous incarnation never fire).
  virtual void on_recover() {}

  /// Fixed CPU cost charged per handled message (settable per node type).
  void set_message_service_time(SimTime t) { message_service_time_ = t; }

  // --- Env ---
  [[nodiscard]] ProcessId self() const override { return id_; }
  [[nodiscard]] std::uint64_t incarnation() const override {
    return incarnation_;
  }
  [[nodiscard]] SimTime now() const override;
  void send_message(ProcessId to, const MessagePtr& msg) override;
  void start_timer(SimTime delay, std::function<void()> fn) override;
  void consume_cpu(SimTime amount) override { pending_work_ += amount; }
  Rng& random() override { return rng_; }
  [[nodiscard]] std::size_t inbox_depth() const override {
    return inbox_.size();
  }
  [[nodiscard]] bool surge_active() const override {
    return world_.surge_active();
  }

 protected:
  World& world() { return world_; }

 private:
  friend class World;

  /// Entry point from the network: enqueue and serve FIFO.
  void accept_delivery(ProcessId from, MessagePtr msg);
  void serve_next();

  ProcessId id_;
  World& world_;
  Rng rng_;
  bool crashed_ = false;
  std::uint64_t incarnation_ = 0;

  SimTime message_service_time_ = microseconds(5);
  std::deque<std::pair<ProcessId, MessagePtr>> inbox_;
  bool serving_ = false;
  SimTime pending_work_ = 0;  // extra CPU charged by the current handler
};

}  // namespace dynastar::sim
