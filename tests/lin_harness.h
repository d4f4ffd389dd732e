// Reusable full-stack linearizability harness: one declarative scenario
// struct drives the complete system (atomic multicast, Paxos, borrow/return
// or read leases, optional repartition churn, optional chaos nemesis), runs
// recording KV clients against it, and checks the observed history for a
// legal sequential witness.
//
// Both the hand-picked regression suites (StackLinearizability, ReadLease)
// and the seeded fuzz sweep (LinFuzz) are thin wrappers over run_lin_scenario:
// anything expressible as a LinScenario gets the same liveness, safety, and
// determinism machinery for free.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/linearizability.h"
#include "core/system.h"
#include "sim/chaos.h"
#include "tests/test_util.h"
#include "workloads/kv.h"

namespace dynastar::testutil {

/// Declarative description of one linearizability run. Every field has a
/// deterministic effect: two runs of the same scenario are bit-identical
/// (asserted by LinFuzz.SameScenarioIsBitIdentical via `fingerprint`).
struct LinScenario {
  core::ExecutionMode mode = core::ExecutionMode::kDynaStar;
  std::uint32_t partitions = 3;
  std::uint64_t system_seed = 1;
  std::uint64_t keys = 10;
  /// Preloaded value for key k is `base_value + k` (nonzero so "absent"
  /// never aliases a legal read).
  std::uint64_t base_value = 1000;
  int clients = 4;
  int ops_per_client = 40;
  /// Workload mix fed to RecordingKvDriver.
  double multi_fraction = 0.4;
  double write_fraction = 0.5;
  /// Epoch-validated read leases (effective in DynaStar / DS-SMR only).
  bool read_leases = false;
  /// Intra-partition parallel executor lanes (1 = serial apply).
  std::uint32_t exec_lanes = 1;
  /// DynaStar only: issue repartition requests mid-run so plans (and with
  /// leases, wholesale lease invalidation) land while commands are in flight.
  bool repartition_mid_run = false;
  /// Arms the seeded nemesis (crashes, link cuts, drop bursts, latency
  /// spikes) on top of a lossy, duplicating network.
  bool chaos = false;
  std::uint64_t chaos_seed = 99;
  /// With chaos: multi-second outages that outrun the catch-up window, so
  /// recovery requires a snapshot install (pair with a small
  /// checkpoint_interval / catchup_window via `tune`).
  bool long_crashes = false;
  /// Simulated horizon; liveness asserts every scripted op completes by then.
  SimTime run_for = seconds(45);
  /// Escape hatch for scenario-specific config knobs.
  std::function<void(core::SystemConfig&)> tune;
};

/// Everything a test might assert on after a run.
struct LinRun {
  std::vector<KvOperation> history;
  StatusTally tally;
  std::uint64_t expected_ops = 0;
  LinearizabilityResult lin;
  /// Digest of the execution (event count, key series/counters, chaos log,
  /// history hash): equal fingerprints mean bit-identical runs.
  std::string fingerprint;
  std::size_t chaos_events = 0;
  double lease_reads = 0;
  double lease_fallbacks = 0;
  double snapshot_installs = 0;
};

inline std::uint64_t lin_fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t lin_history_hash(const std::vector<KvOperation>& history) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& op : history) {
    h = lin_fnv1a(h, op.is_put ? 1 : 0);
    h = lin_fnv1a(h, op.value);
    for (std::uint64_t k : op.keys) h = lin_fnv1a(h, k);
    for (const auto& o : op.observed) h = lin_fnv1a(h, o ? *o + 1 : 0);
    h = lin_fnv1a(h, static_cast<std::uint64_t>(op.invoke_time));
    h = lin_fnv1a(h, static_cast<std::uint64_t>(op.response_time));
  }
  return h;
}

inline LinRun run_lin_scenario(const LinScenario& s) {
  core::SystemConfig config;
  config.mode = s.mode;
  config.num_partitions = s.partitions;
  config.seed = s.system_seed;
  config.repartitioning_enabled =
      s.repartition_mid_run && s.mode == core::ExecutionMode::kDynaStar;
  config.repartition_hint_threshold = UINT64_MAX;
  config.read_leases = s.read_leases;
  config.exec_lanes = s.exec_lanes;
  if (s.chaos) {
    // Liveness under faults needs unbounded retries and a lossy network so
    // the at-most-once machinery is actually exercised.
    config.network.drop_probability = 0.015;
    config.network.duplicate_probability = 0.015;
    config.client_timeout_base = milliseconds(300);
    config.client_timeout_jitter = milliseconds(20);
    config.client_timeout_cap = seconds(2);
    config.client_max_attempts = 0;
  }
  if (s.tune) s.tune(config);

  core::System system(config, workloads::kv_app_factory());
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < s.keys; ++k) {
    const PartitionId p{k % config.num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(s.base_value + k));
  }
  system.preload_assignment(assignment);

  LinRun run;
  run.expected_ops =
      static_cast<std::uint64_t>(s.clients) * s.ops_per_client;
  for (int c = 0; c < s.clients; ++c) {
    system.add_client(std::make_unique<RecordingKvDriver>(
        s.keys, s.ops_per_client, &run.history, &run.tally, s.multi_fraction,
        s.write_fraction));
  }

  sim::ChaosInjector* injector = nullptr;
  sim::ChaosConfig chaos;
  if (s.chaos) {
    chaos.seed = s.chaos_seed;
    chaos.start = seconds(1);
    chaos.horizon = seconds(6);
    chaos.crash_groups.push_back(
        system.topology().group(core::kOracleGroup).replicas);
    std::vector<ProcessId> pool;
    for (std::uint32_t p = 0; p < config.num_partitions; ++p) {
      const auto& replicas =
          system.topology().group(core::group_of(PartitionId{p})).replicas;
      chaos.crash_groups.push_back(replicas);
      pool.insert(pool.end(), replicas.begin(), replicas.end());
    }
    if (s.long_crashes) {
      // Partition-server groups only: snapshot-install assertions are about
      // the *server* recovery path, so don't spend outages on the oracle.
      chaos.crash_groups.erase(chaos.crash_groups.begin());
      chaos.horizon = seconds(8);
      chaos.crash_events = 0;
      chaos.long_crash_events = 3;
      chaos.long_min_downtime = milliseconds(1500);
      chaos.long_max_downtime = milliseconds(2500);
    } else {
      chaos.crash_events = 4;
      chaos.min_downtime = milliseconds(300);
      chaos.max_downtime = milliseconds(800);
      chaos.link_pool = pool;
      chaos.link_cut_events = 2;
      chaos.max_cut = milliseconds(400);
      chaos.drop_burst_events = 2;
      chaos.burst_drop_probability = 0.15;
      chaos.latency_spike_events = 2;
      chaos.spike_latency = milliseconds(1);
      chaos.max_window = milliseconds(300);
    }
  }
  sim::ChaosInjector chaos_injector(system.world(), chaos);
  if (s.chaos) {
    injector = &chaos_injector;
    injector->arm();
  }

  if (s.repartition_mid_run && s.mode == core::ExecutionMode::kDynaStar) {
    system.run_until(milliseconds(300));
    system.request_repartition();
    system.run_until(milliseconds(900));
    system.request_repartition();
  }
  system.run_until(s.run_for);

  if (injector != nullptr) run.chaos_events = injector->events_injected();
  run.lease_reads = system.metrics().counter("server.lease_reads");
  run.lease_fallbacks = system.metrics().counter("server.lease_fallbacks");
  run.snapshot_installs = system.metrics().counter("server.snapshot_installs");

  std::ostringstream fp;
  fp << "events=" << system.world().sim().executed_events();
  for (const char* name :
       {"completed", "executed", "client.timeouts", "client.retransmits"}) {
    const auto* series = system.metrics().find_series(name);
    fp << ' ' << name << '=' << (series ? series->total() : 0.0);
  }
  for (const char* name :
       {"server.reply_cache_hits", "oracle.reply_cache_hits",
        "server.lease_grants", "server.lease_reads", "server.lease_fallbacks",
        "server.lease_revokes", "chaos.events"}) {
    fp << ' ' << name << '=' << system.metrics().counter(name);
  }
  fp << " history=" << run.history.size() << '/' << std::hex
     << lin_history_hash(run.history);
  if (injector != nullptr)
    for (const auto& line : injector->log()) fp << '|' << line;
  run.fingerprint = fp.str();

  const auto full = with_initial_puts(run.history, s.keys, s.base_value);
  run.lin = check_kv_linearizable(full);
  return run;
}

}  // namespace dynastar::testutil
