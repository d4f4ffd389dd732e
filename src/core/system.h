// System: builds and owns a complete simulated deployment — oracle group,
// partition groups (replicas + acceptors), and clients — and offers the
// pre-run state loading the benchmarks use.
#pragma once

#include <concepts>
#include <functional>
#include <memory>
#include <vector>

#include "core/app.h"
#include "core/config.h"
#include "core/nodes.h"
#include "paxos/nodes.h"
#include "paxos/topology.h"
#include "sim/world.h"

namespace dynastar::core {

class System {
 public:
  /// Constructs the full topology: group 0 = oracle, group p+1 = partition
  /// p, each with config.replicas_per_partition replicas and
  /// three acceptors (paper §6.1).
  System(SystemConfig config, AppFactory app_factory);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Adds a closed-loop client with the given command generator. With
  /// surge_only, the client issues commands only while the world's surge
  /// flag is raised (World::begin_surge / ChaosInjector surge windows).
  ClientNode& add_client(std::unique_ptr<ClientDriver> driver,
                         bool surge_only = false);

  // --- pre-run state loading (must happen before run_until) ---
  /// Installs one version of `object`, shared by every replica of
  /// `partition` (and by the STAR master), under `vertex`. The first write
  /// at a replica clones it there (ObjectStore::get_mut).
  void preload_object(ObjectId id, VertexId vertex, PartitionId partition,
                      ObjectPtr object);
  template <std::derived_from<PRObject> Object>
  void preload_object(ObjectId id, VertexId vertex, PartitionId partition,
                      Object object) {
    preload_object(id, vertex, partition,
                   std::make_shared<Object>(std::move(object)));
  }
  /// Installs the initial vertex -> partition map at the oracle and every
  /// server (epoch 0).
  void preload_assignment(const Assignment& assignment);

  void run_until(SimTime t) { world_.run_until(t); }

  sim::World& world() { return world_; }
  MetricsRegistry& metrics() { return world_.metrics(); }
  const paxos::Topology& topology() const { return topology_; }
  const SystemConfig& config() const { return config_; }

  /// Asks every oracle replica that is up to compute a plan at its next
  /// hint delivery (benches use it to place a repartition at a fixed time).
  void request_repartition();

  /// A replica's live core; the replica must be up.
  OracleCore& oracle(std::size_t replica = 0) {
    return oracle_nodes_[replica]->core();
  }
  PartitionServerCore& server(PartitionId p, std::size_t replica = 0) {
    return server_nodes_[p.value()][replica]->core();
  }
  ClientNode& client(std::size_t i) { return *clients_[i]; }

 private:
  SystemConfig config_;
  paxos::Topology topology_;
  sim::World world_;
  AppFactory app_factory_;

  std::vector<OracleNode*> oracle_nodes_;
  std::vector<std::vector<ServerNode*>> server_nodes_;  // [partition][replica]
  std::vector<paxos::AcceptorNode*> acceptors_;
  std::vector<ClientNode*> clients_;
};

}  // namespace dynastar::core
