// Env: the narrow interface protocol cores (Paxos roles, multicast members,
// DynaStar servers) use to interact with their host node. Cores never touch
// the simulator directly, which keeps them unit-testable against a mock Env
// and would let the same cores run over a real transport. It is also the
// one seam through which every core records: the host hands the Env the
// run's trace collector and metrics registry, so no core carries sinks of
// its own.
#pragma once

#include <cstdint>
#include <functional>

#include "common/ids.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "sim/message.h"

namespace dynastar::sim {

class Env {
 public:
  Env(TraceCollector& trace, MetricsRegistry& metrics)
      : trace_(trace), metrics_(metrics) {}
  virtual ~Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// The run-wide metrics registry.
  MetricsRegistry& metrics() { return metrics_; }

  /// Records one lifecycle event stamped with now() and self(). With
  /// tracing off this is one predictable branch and no virtual call.
  void trace(TracePoint point, std::uint64_t key, std::uint32_t attempt,
             std::uint64_t detail = 0) {
    if (trace_.enabled())
      trace_.record(point, now(), key, attempt, self().value(), detail);
  }

  /// Identity of the hosting node.
  [[nodiscard]] virtual ProcessId self() const = 0;

  /// Restarts of the hosting node so far (0 in its first incarnation).
  /// Mock Envs report 0.
  [[nodiscard]] virtual std::uint64_t incarnation() const { return 0; }

  /// Current (simulated) time.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Sends a message to another node. Takes the message by reference so a
  /// multi-destination fan-out pays exactly one refcount bump per
  /// destination (the network's delivery capture) and none in between.
  virtual void send_message(ProcessId to, const MessagePtr& msg) = 0;

  /// One-shot timer; cancelled implicitly if the node crashes first.
  virtual void start_timer(SimTime delay, std::function<void()> fn) = 0;

  /// Charges `amount` of CPU time to this node; subsequent message handling
  /// is pushed back accordingly (models execution cost / saturation).
  virtual void consume_cpu(SimTime amount) = 0;

  /// Node-local deterministic randomness.
  virtual Rng& random() = 0;

  /// Messages waiting in this node's CPU queue — the true backlog under
  /// saturation (protocol-level queues drain synchronously at delivery).
  /// Admission gates read it as their load signal; mock Envs report 0.
  [[nodiscard]] virtual std::size_t inbox_depth() const { return 0; }

  /// True while a load surge is active in the hosting world (surge-only
  /// clients poll this). Mock Envs report false.
  [[nodiscard]] virtual bool surge_active() const { return false; }

 private:
  TraceCollector& trace_;
  MetricsRegistry& metrics_;
};

}  // namespace dynastar::sim
