// Simulated nodes hosting the DynaStar cores: partition server replicas,
// oracle replicas, and clients. Each node is one sim::Process (one queueing
// CPU) whose messages are dispatched into the layered cores.
#pragma once

#include <cassert>
#include <functional>
#include <memory>

#include "core/client.h"
#include "core/config.h"
#include "core/oracle.h"
#include "core/server.h"
#include "sim/process.h"

namespace dynastar::core {

// --- Node CPU costs (drive saturation / peak throughput) ---
inline constexpr SimTime kServerServiceTime = microseconds(4);
inline constexpr SimTime kOracleServiceTime = microseconds(3);
inline constexpr SimTime kClientServiceTime = microseconds(1);

/// Hosts one replica of a replicated core (PartitionServerCore or
/// OracleCore) plus the replica's *durable* checkpoint (modeled like
/// paxos::AcceptorStorage: the one thing that survives a crash). The core
/// itself is volatile: on_crash destroys it, and recovery builds a fresh one
/// from the factory and restores the checkpoint, then replays the log. The
/// factory hands each core the durable checkpoint slot, which the core
/// writes at every checkpoint boundary.
template <class Core>
class ReplicaNode final : public sim::Process {
 public:
  using Factory = std::function<std::unique_ptr<Core>(
      sim::Env&, typename Core::SnapshotPtr& checkpoint)>;

  ReplicaNode(ProcessId id, sim::World& world, SimTime service_time,
              Factory factory)
      : sim::Process(id, world), factory_(std::move(factory)) {
    set_message_service_time(service_time);
    core_ = factory_(*this, checkpoint_);
  }

  void on_start() override {
    // Durable slot-0 checkpoint: covers preloaded objects/assignment, so a
    // crash before the first boundary still restores the initial state.
    checkpoint_ = core_->capture_snapshot();
    core_->start();
  }

  void on_crash() override { core_.reset(); }

  void on_recover() override {
    core_ = factory_(*this, checkpoint_);
    if (checkpoint_) core_->restore_snapshot(*checkpoint_);
    core_->start_recovered();
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_->handle(from, msg);
  }

  /// The live core; the replica must be up.
  Core& core() {
    assert(core_ != nullptr && "replica is crashed");
    return *core_;
  }

 private:
  Factory factory_;
  typename Core::SnapshotPtr checkpoint_;  // durable
  std::unique_ptr<Core> core_;             // volatile (dies on crash)
};

using ServerNode = ReplicaNode<PartitionServerCore>;
using OracleNode = ReplicaNode<OracleCore>;

class ClientNode final : public sim::Process {
 public:
  ClientNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             const SystemConfig& config, std::unique_ptr<ClientDriver> driver,
             bool surge_only = false)
      : sim::Process(id, world),
        core_(*this, topology, config, std::move(driver), surge_only) {
    set_message_service_time(kClientServiceTime);
  }

  void on_start() override { core_.start(); }
  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_.handle(from, msg);
  }

  ClientCore& core() { return core_; }

 private:
  ClientCore core_;
};

}  // namespace dynastar::core
