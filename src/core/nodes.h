// Simulated nodes hosting the DynaStar cores: partition server replicas,
// oracle replicas, and clients. Each node is one sim::Process (one queueing
// CPU) whose messages are dispatched into the layered cores.
#pragma once

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

/// Hosts one PartitionServerCore plus the replica's *durable* checkpoint
/// (modeled like paxos::AcceptorStorage: the one thing that survives a
/// crash). The core itself is volatile — on_crash destroys it, and recovery
/// rebuilds a fresh core from the checkpoint plus log replay.
class ServerNode final : public sim::Process {
 public:
  ServerNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             PartitionId partition, const SystemConfig& config,
             AppFactory app_factory, bool record_metrics)
      : sim::Process(id, world),
        topology_(topology),
        partition_(partition),
        config_(config),
        app_factory_(std::move(app_factory)),
        record_metrics_(record_metrics) {
    set_message_service_time(kServerServiceTime);
    rebuild();
  }

  void on_start() override {
    // Durable slot-0 checkpoint: covers preloaded objects/assignment, so a
    // crash before the first boundary still restores the initial state.
    checkpoint_ = core_->capture_snapshot();
    core_->start();
  }

  void on_crash() override { core_.reset(); }

  void on_recover() override {
    rebuild();
    if (checkpoint_) core_->restore_snapshot(*checkpoint_);
    core_->start_recovered();
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_->handle(from, msg);
  }

  PartitionServerCore& core() { return *core_; }
  [[nodiscard]] PartitionServerCore::SnapshotPtr checkpoint() const {
    return checkpoint_;
  }

 private:
  void rebuild() {
    // Fresh app instance from the factory: AppStateMachine holds no state
    // outside the ObjectStore (by contract), so a new one is equivalent.
    core_ = std::make_unique<PartitionServerCore>(
        *this, topology_, partition_, config_, app_factory_(),
        &world().metrics(), record_metrics_, &world().trace());
    core_->set_checkpoint_sink([this](PartitionServerCore::SnapshotPtr snap) {
      checkpoint_ = std::move(snap);
    });
  }

  const paxos::Topology& topology_;
  PartitionId partition_;
  const SystemConfig& config_;
  AppFactory app_factory_;
  bool record_metrics_;
  std::unique_ptr<PartitionServerCore> core_;  // volatile (dies on crash)
  PartitionServerCore::SnapshotPtr checkpoint_;  // durable
};

/// Oracle analog of ServerNode: volatile core + durable checkpoint.
class OracleNode final : public sim::Process {
 public:
  OracleNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             const SystemConfig& config, bool record_metrics)
      : sim::Process(id, world),
        topology_(topology),
        config_(config),
        record_metrics_(record_metrics) {
    set_message_service_time(kOracleServiceTime);
    rebuild();
  }

  void on_start() override {
    checkpoint_ = core_->capture_snapshot();
    core_->start();
  }

  void on_crash() override { core_.reset(); }

  void on_recover() override {
    rebuild();
    if (checkpoint_) core_->restore_snapshot(*checkpoint_);
    core_->start_recovered();
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    core_->handle(from, msg);
  }

  OracleCore& core() { return *core_; }
  [[nodiscard]] OracleCore::SnapshotPtr checkpoint() const {
    return checkpoint_;
  }

 private:
  void rebuild() {
    core_ = std::make_unique<OracleCore>(*this, topology_, config_,
                                         &world().metrics(), record_metrics_,
                                         &world().trace());
    core_->set_checkpoint_sink(
        [this](OracleCore::SnapshotPtr snap) { checkpoint_ = std::move(snap); });
  }

  const paxos::Topology& topology_;
  const SystemConfig& config_;
  bool record_metrics_;
  std::unique_ptr<OracleCore> core_;  // volatile (dies on crash)
  OracleCore::SnapshotPtr checkpoint_;  // durable
};

class ClientNode final : public sim::Process {
 public:
  ClientNode(ProcessId id, sim::World& world, const paxos::Topology& topology,
             const SystemConfig& config, std::unique_ptr<ClientDriver> driver,
             bool surge_only = false)
      : sim::Process(id, world),
        core_(*this, topology, config, std::move(driver), &world.metrics(),
              &world.trace(), surge_only) {
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
