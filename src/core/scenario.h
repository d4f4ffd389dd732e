// ScenarioBuilder: fluent construction of a complete benchmark/test
// deployment. Replaces the hand-rolled config + preload-loop + add-client
// boilerplate that every bench and system test used to repeat:
//
//   auto system = core::ScenarioBuilder()
//                     .execution_mode(core::ExecutionMode::kDynaStar)
//                     .partitions(4)
//                     .app(workloads::kv_app_factory())
//                     .preload_kv(1024, workloads::KvObject(0))
//                     .clients(16, [&](std::size_t) {
//                       return std::make_unique<workloads::RandomKvDriver>(
//                           1024, 0.5, 0.1);
//                     })
//                     .build();
//   system->run_until(seconds(30));
//
// The product is a plain core::System — the old surface remains the way to
// drive and inspect a run; the builder only removes setup boilerplate.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/object.h"
#include "core/system.h"

namespace dynastar::core {

class ScenarioBuilder {
 public:
  /// Per-client driver factory; called once per client with its index.
  using DriverFactory = std::function<std::unique_ptr<ClientDriver>(std::size_t)>;

  ScenarioBuilder& execution_mode(ExecutionMode m) {
    config_.mode = m;
    return *this;
  }
  /// Replaces the whole config with a registered baseline's ("dynastar",
  /// "ssmr", "dssmr", "star"), keeping the current partition count and seed.
  /// Aborts on an unknown name. Defined in src/baselines/registry.cpp —
  /// callers must link dynastar_baselines (every bench/test/tool does).
  ScenarioBuilder& system_preset(std::string_view name);
  ScenarioBuilder& partitions(std::uint32_t n) {
    config_.num_partitions = n;
    return *this;
  }
  ScenarioBuilder& seed(std::uint64_t s) {
    config_.seed = s;
    return *this;
  }
  /// Enables/disables repartitioning; disabling also raises the hint
  /// threshold so no plan can ever trigger (the common test setup).
  ScenarioBuilder& repartitioning(bool enabled);
  /// Applied-log suffix (in slots) a replica retains beyond its last stable
  /// checkpoint for peer catch-up; a peer lagging further than this pulls a
  /// full snapshot instead. 0 = retain everything.
  ScenarioBuilder& catchup_window(paxos::Slot slots) {
    config_.paxos.catchup_window = slots;
    return *this;
  }
  /// Decided slots between durable checkpoints (bounds both recovery replay
  /// and retained-log memory). 0 disables periodic checkpoints.
  ScenarioBuilder& checkpoint_interval(paxos::Slot slots) {
    config_.paxos.checkpoint_interval = slots;
    return *this;
  }
  /// Enables the deterministic intra-partition parallel executor with
  /// `lanes` simulated lanes (1 = serial apply, the default).
  ScenarioBuilder& exec_lanes(std::uint32_t lanes) {
    config_.exec_lanes = lanes;
    return *this;
  }
  /// Network topology preset: "lan" (the default uniform latency-only
  /// model) or "wan:<N>dc" (e.g. "wan:3dc") — N simulated datacenters with
  /// fat intra-site and thin, far inter-site links; replicas, acceptors and
  /// clients are striped across sites. Aborts on an unknown spec.
  ScenarioBuilder& net_preset(std::string_view spec);
  /// Serves read-only multi-partition commands from epoch-validated lease
  /// copies instead of borrow/return (DynaStar and DS-SMR modes only; a
  /// no-op elsewhere and off by default).
  ScenarioBuilder& read_leases(bool on = true) {
    config_.read_leases = on;
    return *this;
  }
  /// Arbitrary knobs not worth a dedicated builder method.
  ScenarioBuilder& tune(const std::function<void(SystemConfig&)>& fn) {
    fn(config_);
    return *this;
  }
  /// Replaces the whole config (then continue overriding fluently).
  ScenarioBuilder& config(SystemConfig config) {
    config_ = std::move(config);
    return *this;
  }
  [[nodiscard]] const SystemConfig& current_config() const { return config_; }

  /// Application state-machine factory (required before build()).
  ScenarioBuilder& app(AppFactory factory) {
    app_factory_ = std::move(factory);
    return *this;
  }

  /// Preloads `keys` objects 0..keys-1 (vertex k = object k) placed
  /// round-robin across partitions, and installs the matching epoch-0
  /// assignment. Every key starts as one shared version of `prototype`; the
  /// first write to a key clones it (ObjectStore::get_mut).
  template <std::derived_from<PRObject> Object>
  ScenarioBuilder& preload_kv(std::uint64_t keys, Object prototype) {
    kv_preloads_.push_back(
        KvPreload{keys, std::make_shared<Object>(std::move(prototype))});
    return *this;
  }

  /// Custom preload hook (Chirper/TPC-C style setup); runs after
  /// preload_kv, in registration order, before clients are added.
  ScenarioBuilder& preload(std::function<void(System&)> fn);

  /// Adds `count` clients; `factory(i)` supplies each driver.
  ScenarioBuilder& clients(std::size_t count, DriverFactory factory);

  /// Adds `count` surge-only clients: they issue commands only while the
  /// world's surge flag is raised (ChaosInjector surge windows or explicit
  /// World::begin_surge), modeling an open-loop load burst.
  ScenarioBuilder& surge_clients(std::size_t count, DriverFactory factory);

  /// Enables admission control on both tiers: sets the partition servers'
  /// admission-queue high-water mark and the oracle's inflight cap to `n`.
  /// 0 disables shedding (the default).
  ScenarioBuilder& queue_cap(std::size_t n) {
    config_.server_queue_cap = n;
    config_.oracle_inflight_cap = n;
    return *this;
  }

  /// Arms the world's lifecycle TraceCollector from the start of the run.
  ScenarioBuilder& trace(bool enabled = true) {
    trace_ = enabled;
    return *this;
  }

  /// Constructs the System and applies preloads/clients/tracing. The
  /// builder can be reused afterwards (state is retained, not consumed).
  [[nodiscard]] std::unique_ptr<System> build() const;

 private:
  struct KvPreload {
    std::uint64_t keys = 0;
    ObjectPtr prototype;
  };
  struct ClientBatch {
    std::size_t count = 0;
    DriverFactory factory;
    bool surge_only = false;
  };

  SystemConfig config_;
  AppFactory app_factory_;
  std::vector<KvPreload> kv_preloads_;
  std::vector<std::function<void(System&)>> preload_fns_;
  std::vector<ClientBatch> client_batches_;
  bool trace_ = false;
};

}  // namespace dynastar::core
