// World: the container tying together simulator, network, metrics, and the
// set of simulated processes. One World per experiment run.
#pragma once

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "sim/message_pool.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dynastar::sim {

class Process;

class World {
 public:
  explicit World(NetworkConfig net_config = {}, std::uint64_t seed = 1);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Registers a process constructed by `factory(id)`; returns the assigned
  /// id. All processes must be added before the simulation is driven.
  template <typename T, typename... Args>
  T& spawn(Args&&... args) {
    const ProcessId id{next_process_id_++};
    auto proc = std::make_unique<T>(id, *this, std::forward<Args>(args)...);
    T& ref = *proc;
    attach(std::move(proc));
    return ref;
  }

  Simulator& sim() { return sim_; }
  Network& network() { return *network_; }
  MetricsRegistry& metrics() { return metrics_; }
  /// Lifecycle trace sink (disabled by default; `trace().enable()` to arm).
  /// Processes hand it to their cores through sim::Env.
  TraceCollector& trace() { return trace_; }
  [[nodiscard]] const TraceCollector& trace() const { return trace_; }

  /// Fresh independent random stream (deterministic given the world seed).
  Rng fork_rng() { return rng_.fork(); }

  [[nodiscard]] Process* find(ProcessId id) const;

  /// Crashes a process: its volatile state is torn down via Process::on_crash
  /// and all in-flight deliveries/timers addressed to it are suppressed.
  void crash(ProcessId id);
  /// Restarts a crashed process (Process::on_recover runs with a fresh
  /// incarnation).
  void recover(ProcessId id);

  /// Starts all registered processes (calls Process::on_start in id order)
  /// and runs the simulation until `t`.
  void run_until(SimTime t);

  [[nodiscard]] SimTime now() const { return sim_.now(); }

  /// Message allocation pool for this world (installed as the active pool
  /// on construction and on every run_until, so interleaved worlds each
  /// allocate from their own slabs).
  MessagePool& message_pool() { return message_pool_; }

  /// Load-surge flag, refcounted so overlapping surge windows compose.
  /// Surge-only clients (ClientCore) poll it via Env::surge_active() and
  /// issue commands only while it is raised.
  void begin_surge() { ++surge_level_; }
  void end_surge() {
    if (surge_level_ > 0) --surge_level_;
  }
  [[nodiscard]] bool surge_active() const { return surge_level_ > 0; }

 private:
  void attach(std::unique_ptr<Process> proc);
  friend class Network;

  /// Hands an arriving message to its (live) destination process; the
  /// network's delivery events call it directly.
  void deliver(ProcessId from, ProcessId to, const MessagePtr& msg);
  void start_all();

  // Declared first so it outlives everything that can hold messages
  // (pending simulator events, process inboxes, protocol cores).
  MessagePool message_pool_;
  Simulator sim_;
  Rng rng_;
  std::unique_ptr<Network> network_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  std::vector<std::unique_ptr<Process>> processes_;  // index == ProcessId
  std::uint64_t next_process_id_ = 0;
  bool started_ = false;
  int surge_level_ = 0;
};

}  // namespace dynastar::sim
