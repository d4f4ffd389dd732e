#include "core/system.h"

#include <cassert>

#include "common/metric_names.h"

namespace dynastar::core {

namespace {
constexpr std::uint32_t kAcceptorsPerPartition = 3;  // paper §6.1
/// Node CPU cost of an acceptor (drives saturation / peak throughput).
constexpr SimTime kAcceptorServiceTime = microseconds(2);

/// Links between processes in the same datacenter: fat and near.
/// 10 Gb/s, 50 us propagation, 16 MiB queue.
constexpr sim::LinkProfile kIntraSiteProfile{
    /*bandwidth_bytes_per_sec=*/1'250'000'000,
    /*propagation=*/microseconds(50),
    /*queue_bytes=*/16 * 1024 * 1024};
/// Links between datacenters: thin and far. 100 Mb/s, 20 ms propagation,
/// 4 MiB queue.
constexpr sim::LinkProfile kInterSiteProfile{
    /*bandwidth_bytes_per_sec=*/12'500'000,
    /*propagation=*/milliseconds(20),
    /*queue_bytes=*/4 * 1024 * 1024};
}  // namespace

System::System(SystemConfig config, AppFactory app_factory)
    : config_(std::move(config)),
      world_(config_.network, config_.seed),
      app_factory_(std::move(app_factory)) {
  // Pre-register the overload counters so every run report carries them —
  // the report schema check requires their presence even when zero.
  world_.metrics().add_counter(metric::kServerShed, 0.0);
  world_.metrics().add_counter(metric::kOracleShed, 0.0);
  world_.metrics().add_counter(metric::kClientRetriesExhausted, 0.0);
  world_.metrics().add_counter(metric::kTransferChunksSent, 0.0);
  world_.metrics().add_counter(metric::kTransferChunksRetransmitted, 0.0);
  if (config_.mode == ExecutionMode::kStar) {
    world_.metrics().add_counter(metric::kStarEpochs, 0.0);
    world_.metrics().add_counter(metric::kStarDeferred, 0.0);
  }
  if (config_.exec_lanes > 1) {
    world_.metrics().add_counter(metric::kExecBatches, 0.0);
    world_.metrics().add_counter(metric::kExecBatchedCommands, 0.0);
    world_.metrics().add_counter(metric::kExecConflictEdges, 0.0);
  }
  if (config_.read_leases && mode_supports_leases(config_.mode)) {
    world_.metrics().add_counter(metric::kServerLeaseGrants, 0.0);
    world_.metrics().add_counter(metric::kServerLeaseReads, 0.0);
    world_.metrics().add_counter(metric::kServerLeaseFallbacks, 0.0);
    world_.metrics().add_counter(metric::kServerLeaseRevokes, 0.0);
    world_.metrics().add_counter(metric::kOracleLeaseRelays, 0.0);
  }
  const std::uint32_t replicas = config_.replicas_per_partition;
  const std::uint32_t acceptors = kAcceptorsPerPartition;
  const std::uint32_t groups = config_.num_partitions + 1;  // + oracle

  // Process ids are assigned in spawn order; lay the topology out first so
  // the cores (constructed inside the nodes) can resolve peers immediately.
  std::uint64_t next_id = 0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    paxos::GroupDef def;
    def.id = GroupId{g};
    for (std::uint32_t r = 0; r < replicas; ++r)
      def.replicas.push_back(ProcessId{next_id++});
    for (std::uint32_t a = 0; a < acceptors; ++a)
      def.acceptors.push_back(ProcessId{next_id++});
    topology_.add_group(std::move(def));
  }

  // Oracle group (group 0).
  for (std::uint32_t r = 0; r < replicas; ++r) {
    auto& node = world_.spawn<OracleNode>(
        kOracleServiceTime,
        [this](sim::Env& env, OracleCore::SnapshotPtr& checkpoint) {
          return std::make_unique<OracleCore>(env, topology_, config_,
                                              checkpoint);
        });
    oracle_nodes_.push_back(&node);
  }
  for (std::uint32_t a = 0; a < acceptors; ++a) {
    auto& node = world_.spawn<paxos::AcceptorNode>(GroupId{0});
    node.set_message_service_time(kAcceptorServiceTime);
    acceptors_.push_back(&node);
  }

  // Partition groups.
  server_nodes_.resize(config_.num_partitions);
  for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
    for (std::uint32_t r = 0; r < replicas; ++r) {
      // A fresh app instance per incarnation: AppStateMachine holds no
      // state outside the ObjectStore (by contract), so a new one is
      // equivalent.
      auto& node = world_.spawn<ServerNode>(
          kServerServiceTime,
          [this, p](sim::Env& env,
                    PartitionServerCore::SnapshotPtr& checkpoint) {
            return std::make_unique<PartitionServerCore>(
                env, topology_, PartitionId{p}, config_, app_factory_(),
                checkpoint);
          });
      server_nodes_[p].push_back(&node);
    }
    for (std::uint32_t a = 0; a < acceptors; ++a) {
      auto& node = world_.spawn<paxos::AcceptorNode>(GroupId{p + 1});
      node.set_message_service_time(kAcceptorServiceTime);
      acceptors_.push_back(&node);
    }
  }

  // Sanity: the computed ids must match what spawn handed out.
  for (std::uint32_t g = 0; g < groups; ++g) {
    const auto& def = topology_.group(GroupId{g});
    for ([[maybe_unused]] ProcessId pid : def.replicas)
      assert(world_.find(pid) != nullptr);
    for ([[maybe_unused]] ProcessId pid : def.acceptors)
      assert(world_.find(pid) != nullptr);
  }

  // WAN topology: stripe every group across the configured sites so quorums
  // and state transfers cross inter-datacenter links, then install the
  // site-pair profiles (explicit per-link overrides still win over these).
  if (config_.net_sites > 0) {
    sim::Network& net = world_.network();
    for (std::uint32_t g = 0; g < groups; ++g) {
      const auto& def = topology_.group(GroupId{g});
      for (std::size_t i = 0; i < def.replicas.size(); ++i)
        net.set_site(def.replicas[i],
                     static_cast<std::uint32_t>(i) % config_.net_sites);
      for (std::size_t i = 0; i < def.acceptors.size(); ++i)
        net.set_site(def.acceptors[i],
                     static_cast<std::uint32_t>(i) % config_.net_sites);
    }
    for (std::uint32_t i = 0; i < config_.net_sites; ++i)
      for (std::uint32_t j = 0; j < config_.net_sites; ++j)
        if (i != j) net.set_site_profile(i, j, kInterSiteProfile);
    for (std::uint32_t i = 0; i < config_.net_sites; ++i)
      net.set_site_profile(i, i, kIntraSiteProfile);
  }
}

ClientNode& System::add_client(std::unique_ptr<ClientDriver> driver,
                               bool surge_only) {
  auto& node = world_.spawn<ClientNode>(topology_, config_, std::move(driver),
                                        surge_only);
  if (config_.net_sites > 0)
    world_.network().set_site(
        node.id(),
        static_cast<std::uint32_t>(clients_.size()) % config_.net_sites);
  clients_.push_back(&node);
  return node;
}

void System::preload_object(ObjectId id, VertexId vertex, PartitionId partition,
                            ObjectPtr object) {
  for (ServerNode* node : server_nodes_[partition.value()])
    node->core().preload_object(id, vertex, object);
  // STAR: the master partition is a full replica, so preloaded state must
  // exist there too (the run keeps it fresh by addressing every command to
  // the master as well).
  if (config_.mode == ExecutionMode::kStar && partition != kStarMaster) {
    for (ServerNode* node : server_nodes_[kStarMaster.value()])
      node->core().preload_object(id, vertex, object);
  }
}

void System::request_repartition() {
  for (OracleNode* node : oracle_nodes_)
    if (!node->crashed()) node->core().request_repartition();
}

void System::preload_assignment(const Assignment& assignment) {
  auto shared = std::make_shared<const Assignment>(assignment);
  for (OracleNode* node : oracle_nodes_)
    node->core().preload_assignment(shared, /*epoch=*/0);
  for (auto& replicas : server_nodes_)
    for (ServerNode* node : replicas)
      node->core().preload_assignment(shared, /*epoch=*/0);
}

}  // namespace dynastar::core
