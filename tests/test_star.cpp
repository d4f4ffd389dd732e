// STAR asymmetric execution: single-partition commands execute partitioned,
// multi-partition commands defer to log-ordered master epochs. These tests
// pin the mode's safety bar (linearizability under mixed load, chaos, and
// crash-restart with snapshot installs), its determinism bar (same-seed runs
// phase-switch bit-identically), and the baseline-registry contract that the
// four systems differ only in protocol knobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/linearizability.h"
#include "common/metric_names.h"
#include "core/scenario.h"
#include "core/system.h"
#include "sim/chaos.h"
#include "tests/test_util.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

constexpr std::uint64_t kKeys = 10;
constexpr int kClients = 4;
constexpr int kOpsPerClient = 40;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t history_hash(const std::vector<KvOperation>& history) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& op : history) {
    h = fnv1a(h, op.is_put ? 1 : 0);
    h = fnv1a(h, op.value);
    for (std::uint64_t k : op.keys) h = fnv1a(h, k);
    for (const auto& o : op.observed) h = fnv1a(h, o ? *o + 1 : 0);
    h = fnv1a(h, static_cast<std::uint64_t>(op.invoke_time));
    h = fnv1a(h, static_cast<std::uint64_t>(op.response_time));
  }
  return h;
}

struct StarRun {
  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  double epochs = 0;
  double deferred = 0;
  std::string fingerprint;
};

std::string fingerprint_of(core::System& system,
                           const std::vector<KvOperation>& history) {
  std::ostringstream fp;
  fp << "events=" << system.world().sim().executed_events();
  for (const char* name : {"completed", "executed", "client.timeouts",
                           "client.retransmits"}) {
    const auto* series = system.metrics().find_series(name);
    fp << ' ' << name << '=' << (series ? series->total() : 0.0);
  }
  for (const char* name :
       {metric::kStarEpochs, metric::kStarDeferred,
        "server.reply_cache_hits", "server.snapshot_installs"}) {
    fp << ' ' << name << '=' << system.metrics().counter(name);
  }
  fp << " history=" << history.size() << '/' << std::hex
     << history_hash(history);
  return fp.str();
}

/// Mixed single/multi-key load against a 3-partition STAR deployment on a
/// lossy, duplicating network — every epoch switch interleaves with singles.
StarRun run_star_scenario(std::uint64_t seed) {
  auto config = testutil::config_for(core::ExecutionMode::kStar, 3);
  config.seed = seed;
  config.network.drop_probability = 0.01;
  config.network.duplicate_probability = 0.01;
  config.client_timeout_base = milliseconds(300);
  config.client_timeout_jitter = milliseconds(20);
  config.client_timeout_cap = seconds(2);
  config.client_max_attempts = 0;  // retry forever: liveness is the property

  core::System system(config, workloads::kv_app_factory());
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const PartitionId p{k % config.num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(1000 + k));
  }
  system.preload_assignment(assignment);

  StarRun run;
  for (int c = 0; c < kClients; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        kKeys, kOpsPerClient, &run.history, &run.tally));
  }
  system.run_until(seconds(30));

  run.epochs = system.metrics().counter(metric::kStarEpochs);
  run.deferred = system.metrics().counter(metric::kStarDeferred);
  run.fingerprint = fingerprint_of(system, run.history);
  return run;
}

TEST(Star, MixedLoadIsLinearizable) {
  const StarRun run = run_star_scenario(/*seed=*/5);

  // The asymmetric path was actually exercised: multi-partition commands
  // were deferred and executed in at least one master epoch.
  EXPECT_GE(run.epochs, 1.0) << "no epoch switch ever happened";
  EXPECT_GE(run.deferred, 1.0) << "no command took the deferred path";

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kClients) * kOpsPerClient;
  EXPECT_EQ(run.tally.completions, expected) << "clients hung under STAR";
  EXPECT_EQ(run.tally.ok, expected);
  ASSERT_EQ(run.history.size(), expected);

  const auto full = testutil::with_initial_puts(run.history, kKeys, 1000);
  const auto result = check_kv_linearizable(full);
  EXPECT_TRUE(result.linearizable)
      << "non-linearizable STAR history; stuck op "
      << (result.stuck_operation ? static_cast<long>(*result.stuck_operation)
                                 : -1);
}

TEST(Star, PhaseSwitchesAreBitDeterministic) {
  const StarRun a = run_star_scenario(/*seed=*/5);
  const StarRun b = run_star_scenario(/*seed=*/5);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "STAR epoch switching is not a pure function of (config, seed)";
  EXPECT_GE(a.epochs, 1.0);
}

/// Long-downtime crashes (including the master partition's replicas) while
/// epochs keep switching: downtime outruns the retained log, so recovery
/// REQUIRES a snapshot install whose Snapshot carries the STAR fields
/// (epoch counter, deferred queue, pending updates).
StarRun run_star_crash_scenario(std::uint64_t system_seed,
                                std::uint64_t chaos_seed) {
  auto config = testutil::config_for(core::ExecutionMode::kStar, 3);
  config.seed = system_seed;
  config.network.drop_probability = 0.01;
  config.network.duplicate_probability = 0.01;
  config.client_timeout_base = milliseconds(300);
  config.client_timeout_jitter = milliseconds(20);
  config.client_timeout_cap = seconds(2);
  config.client_max_attempts = 0;
  config.paxos.checkpoint_interval = 32;
  config.paxos.catchup_window = 8;

  core::System system(config, workloads::kv_app_factory());
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const PartitionId p{k % config.num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(1000 + k));
  }
  system.preload_assignment(assignment);

  StarRun run;
  for (int c = 0; c < kClients; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        kKeys, kOpsPerClient, &run.history, &run.tally));
  }

  sim::ChaosConfig chaos;
  chaos.seed = chaos_seed;
  chaos.start = seconds(1);
  chaos.horizon = seconds(8);
  for (std::uint32_t p = 0; p < config.num_partitions; ++p) {
    chaos.crash_groups.push_back(
        system.topology().group(core::group_of(PartitionId{p})).replicas);
  }
  chaos.crash_events = 0;
  chaos.long_crash_events = 3;
  chaos.long_min_downtime = milliseconds(1500);
  chaos.long_max_downtime = milliseconds(2500);

  sim::ChaosInjector injector(system.world(), chaos);
  injector.arm();

  system.run_until(seconds(50));

  EXPECT_GE(system.metrics().counter("server.snapshot_installs"), 1.0)
      << "downtime never outran the catch-up window: no snapshot install";
  run.epochs = system.metrics().counter(metric::kStarEpochs);
  run.deferred = system.metrics().counter(metric::kStarDeferred);
  run.fingerprint = fingerprint_of(system, run.history);
  return run;
}

TEST(Star, EpochSwitchRacesCrashRestartAndStaysLinearizable) {
  const StarRun run = run_star_crash_scenario(/*system_seed=*/13,
                                              /*chaos_seed=*/57);

  EXPECT_GE(run.epochs, 1.0);
  EXPECT_GE(run.deferred, 1.0);

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kClients) * kOpsPerClient;
  EXPECT_EQ(run.tally.completions, expected)
      << "clients hung across a long-downtime crash under STAR";
  EXPECT_EQ(run.tally.ok, expected);
  ASSERT_EQ(run.history.size(), expected);

  const auto full = testutil::with_initial_puts(run.history, kKeys, 1000);
  const auto result = check_kv_linearizable(full);
  EXPECT_TRUE(result.linearizable)
      << "non-linearizable STAR history after snapshot-install recovery; "
      << "stuck op "
      << (result.stuck_operation ? static_cast<long>(*result.stuck_operation)
                                 : -1);
}

TEST(Star, CrashRestartRunsAreBitIdentical) {
  const StarRun a = run_star_crash_scenario(/*system_seed=*/13,
                                            /*chaos_seed=*/57);
  const StarRun b = run_star_crash_scenario(/*system_seed=*/13,
                                            /*chaos_seed=*/57);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "STAR snapshot recovery broke same-seed determinism";
}

/// A 3-partition STAR deployment under background mixed load (so markers
/// keep flowing) that the marker-sender tests below steer by crashing and
/// restoring master replicas.
struct MarkerSenderRun {
  MarkerSenderRun() : system(config(), workloads::kv_app_factory()) {
    // The background load touches keys below kKeys; the probe below writes
    // kKeys (on partition 1) and kKeys + 1 (on partition 2).
    testutil::preload(system, kKeys + 2, 1000);
    for (int c = 0; c < kClients; ++c) {
      system.add_client(std::make_unique<workloads::RandomKvDriver>(
          kKeys, /*write_fraction=*/0.5, /*multi_fraction=*/0.3));
    }
  }

  static core::SystemConfig config() {
    auto config = testutil::config_for(core::ExecutionMode::kStar, 3);
    config.paxos.checkpoint_interval = 64;
    return config;
  }

  ProcessId master(std::size_t replica) {
    return system.topology().group(core::group_of(core::kStarMaster))
        .replicas[replica];
  }

  /// Call once one master replica is the only one up, so every marker from
  /// here on is its own. A put to keys on the two other partitions defers
  /// to the next epoch switch, so it completes only once that replica's
  /// next marker is delivered at the master; gets at both owners read the
  /// put only once they deliver that marker too.
  void expect_next_marker_delivered_everywhere() {
    const auto kv = [](std::initializer_list<std::uint64_t> keys,
                       workloads::KvOp::Kind kind) {
      core::CommandSpec spec;
      for (std::uint64_t k : keys)
        spec.objects.emplace_back(ObjectId{k}, core::VertexId{k});
      spec.payload = sim::make_message<workloads::KvOp>(kind, 7);
      return spec;
    };
    using Kind = workloads::KvOp::Kind;
    std::vector<workloads::ScriptedKvDriver::Record> records;
    system.add_client(std::make_unique<workloads::ScriptedKvDriver>(
        std::vector<core::CommandSpec>{kv({kKeys, kKeys + 1}, Kind::kPut),
                                       kv({kKeys}, Kind::kGet),
                                       kv({kKeys + 1}, Kind::kGet)},
        &records));
    system.run_until(system.world().now() + seconds(3));
    ASSERT_EQ(records.size(), 3u) << "the epoch switch never happened";
    for (const auto& record : records)
      EXPECT_EQ(record.status, core::ReplyStatus::kOk);
    for (std::size_t i = 1; i < 3; ++i) {
      ASSERT_EQ(records[i].observed.size(), 1u);
      EXPECT_EQ(records[i].observed[0], std::optional<std::uint64_t>(7))
          << "partition " << i << " missed the epoch switch";
    }
  }

  core::System system;
};

TEST(Star, MasterReplicaInstallingAPeerSnapshotKeepsItsMarkerChannel) {
  // Replica 1 is cut off for a while and sends no markers meanwhile, so
  // the two master replicas have sent different numbers of markers when
  // the follower installs the leader's state. The install must leave the
  // follower's own sender as it was: with the leader's counts, its next
  // marker would skip or reuse seqs on its own channel, and receivers would
  // hold or drop it.
  MarkerSenderRun run;
  core::System& system = run.system;
  sim::World& world = system.world();
  system.run_until(milliseconds(400));
  for (std::uint64_t id = 0; world.find(ProcessId{id}) != nullptr; ++id) {
    world.network().block_link(run.master(1), ProcessId{id});
    world.network().block_link(ProcessId{id}, run.master(1));
  }
  system.run_until(milliseconds(700));
  world.network().unblock_all();
  system.run_until(milliseconds(1200));
  const std::size_t leader =
      system.server(core::kStarMaster, 0).member().is_leader() ? 0 : 1;
  core::PartitionServerCore& follower =
      system.server(core::kStarMaster, 1 - leader);
  ASSERT_FALSE(follower.member().is_leader());
  follower.restore_snapshot(
      *system.server(core::kStarMaster, leader).capture_snapshot());
  world.crash(run.master(leader));
  run.expect_next_marker_delivered_everywhere();
}

TEST(Star, MasterReplicaRecoveredPastItsCheckpointSendsOnAFreshChannel) {
  // Replica 1 is down for good, so replica 0 sends every marker. It crashes
  // after sending markers past its last checkpoint; restoring its sender
  // from that checkpoint would resend seqs its channel has already
  // delivered, so the recovered incarnation must send on a channel of its
  // own.
  MarkerSenderRun run;
  core::System& system = run.system;
  system.run_until(milliseconds(100));
  system.world().crash(run.master(1));
  system.run_until(milliseconds(800));
  system.world().crash(run.master(0));
  system.run_until(milliseconds(850));
  system.world().recover(run.master(0));
  run.expect_next_marker_delivered_everywhere();
}

// Surge under STAR with admission control armed: client-facing commands are
// shed with kBusy, but the shed exemptions specific to the mode must hold —
// epoch markers (not ExecCommands) and epoch updates (reliable channel) are
// never gated, so epochs keep switching and the deferred path stays live
// right through the overload window. Chaos.* so the sanitizer job's existing
// filter picks it up alongside the DynaStar chaos runs.
TEST(Chaos, StarSurgeShedsWithoutStallingEpochSwitches) {
  auto config = testutil::config_for(core::ExecutionMode::kStar, 3);
  config.seed = 21;
  config.client_timeout_base = milliseconds(300);
  config.client_timeout_jitter = milliseconds(20);
  config.client_timeout_cap = seconds(2);
  config.client_max_attempts = 0;
  config.server_queue_cap = 8;
  config.oracle_inflight_cap = 16;

  core::System system(config, workloads::kv_app_factory());
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const PartitionId p{k % config.num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(1000 + k));
  }
  system.preload_assignment(assignment);

  // Enough scripted work to still be in flight when the surge saturates
  // admission — their completions are the shed-and-retry path under test.
  constexpr int kSurgeOps = kOpsPerClient * 10;
  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  for (int c = 0; c < kClients; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        kKeys, kSurgeOps, &history, &tally));
  }
  // An open-loop burst of surge-only clients saturates admission during
  // [1s, 5s); the scripted clients must still finish afterwards.
  for (int c = 0; c < 24; ++c) {
    system.add_client(std::make_unique<workloads::RandomKvDriver>(kKeys, 0.5,
                                                                  0.4),
                      /*surge_only=*/true);
  }
  auto& world = system.world();
  world.sim().schedule_at(seconds(1), [&world] { world.begin_surge(); });
  world.sim().schedule_at(seconds(5), [&world] { world.end_surge(); });

  system.run_until(seconds(1));
  const double epochs_before_surge =
      system.metrics().counter(metric::kStarEpochs);
  system.run_until(seconds(5));
  const double epochs_during_surge =
      system.metrics().counter(metric::kStarEpochs);
  system.run_until(seconds(60));

  // The gate engaged, yet epochs kept switching right through the overload
  // window: markers are StarEpochMsg (never ExecCommand-gated) and updates
  // ride the reliable channel.
  EXPECT_GE(system.metrics().counter(metric::kServerShed), 1.0)
      << "surge never tripped admission control";
  EXPECT_GT(epochs_during_surge, epochs_before_surge)
      << "epoch switching stalled during the surge";

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kClients) * kSurgeOps;
  EXPECT_EQ(tally.completions, expected) << "scripted clients hung";
  EXPECT_EQ(tally.ok, expected);

  const auto full = testutil::with_initial_puts(history, kKeys, 1000);
  EXPECT_TRUE(check_kv_linearizable(full).linearizable);
}

// --- Baseline registry -----------------------------------------------------

/// Every field that is NOT a protocol knob must equal baseline_common()'s.
/// Spelled out field-by-field (memcmp would compare padding) so adding a
/// shared parameter without listing it here fails the build review, not the
/// comparison.
void expect_only_protocol_knobs_differ(const core::SystemConfig& c,
                                       const core::SystemConfig& common) {
  EXPECT_EQ(c.num_partitions, common.num_partitions);
  EXPECT_EQ(c.replicas_per_partition, common.replicas_per_partition);
  EXPECT_EQ(c.repartition_hint_threshold, common.repartition_hint_threshold);
  EXPECT_EQ(c.min_repartition_interval, common.min_repartition_interval);
  EXPECT_EQ(c.hint_batch_commands, common.hint_batch_commands);
  EXPECT_EQ(c.eager_plan_transfer, common.eager_plan_transfer);
  EXPECT_EQ(c.strict_epoch_validation, common.strict_epoch_validation);
  EXPECT_EQ(c.client_cache_capacity, common.client_cache_capacity);
  EXPECT_EQ(c.client_timeout_base, common.client_timeout_base);
  EXPECT_EQ(c.client_timeout_multiplier, common.client_timeout_multiplier);
  EXPECT_EQ(c.client_timeout_jitter, common.client_timeout_jitter);
  EXPECT_EQ(c.client_timeout_cap, common.client_timeout_cap);
  EXPECT_EQ(c.client_max_attempts, common.client_max_attempts);
  EXPECT_EQ(c.server_queue_cap, common.server_queue_cap);
  EXPECT_EQ(c.oracle_inflight_cap, common.oracle_inflight_cap);
  EXPECT_EQ(c.client_retry_budget, common.client_retry_budget);
  EXPECT_EQ(c.client_retry_token_interval, common.client_retry_token_interval);
  EXPECT_EQ(c.partitioner.imbalance, common.partitioner.imbalance);
  EXPECT_EQ(c.partitioner.seed, common.partitioner.seed);
  EXPECT_EQ(c.paxos.catchup_window, common.paxos.catchup_window);
  EXPECT_EQ(c.paxos.checkpoint_interval, common.paxos.checkpoint_interval);
  EXPECT_EQ(c.network.base_latency, common.network.base_latency);
  EXPECT_EQ(c.network.jitter, common.network.jitter);
  EXPECT_EQ(c.network.drop_probability, common.network.drop_probability);
  EXPECT_EQ(c.network.duplicate_probability,
            common.network.duplicate_probability);
  EXPECT_EQ(c.network.per_kib_cost, common.network.per_kib_cost);
  EXPECT_EQ(c.seed, common.seed);
}

TEST(Registry, SystemsDifferOnlyInProtocolKnobs) {
  const auto common = baselines::baseline_common(4, 9);
  for (const auto& baseline : baselines::registry()) {
    SCOPED_TRACE(baseline.name);
    const auto config = baseline.config(4, 9);
    EXPECT_EQ(config.mode, baseline.mode);
    expect_only_protocol_knobs_differ(config, common);
  }
}

TEST(Registry, EnumeratesAllFourSystems) {
  ASSERT_EQ(baselines::registry().size(), 4u);
  for (const char* name : {"dynastar", "ssmr", "dssmr", "star"}) {
    const auto* baseline = baselines::find_baseline(name);
    ASSERT_NE(baseline, nullptr) << name;
    EXPECT_STREQ(baseline->name, name);
    EXPECT_NE(std::string(baseline->summary), "");
  }
  EXPECT_EQ(baselines::find_baseline("paxos-only"), nullptr);
  EXPECT_EQ(baselines::baseline_names(), "dynastar | ssmr | dssmr | star");
}

TEST(Registry, OnlyDynaStarRepartitions) {
  for (const auto& baseline : baselines::registry()) {
    const auto config = baseline.config(2);
    EXPECT_EQ(config.repartitioning_enabled,
              baseline.mode == core::ExecutionMode::kDynaStar)
        << baseline.name;
  }
}

TEST(Registry, ScenarioBuilderPresetKeepsDeploymentShape) {
  core::ScenarioBuilder builder;
  builder.partitions(6).seed(33).system_preset("star");
  EXPECT_EQ(builder.current_config().mode, core::ExecutionMode::kStar);
  EXPECT_EQ(builder.current_config().num_partitions, 6u);
  EXPECT_EQ(builder.current_config().seed, 33u);
  EXPECT_FALSE(builder.current_config().repartitioning_enabled);
}

TEST(ExecutionModeApi, NamesRoundTripThroughParse) {
  for (core::ExecutionMode mode : core::kAllModes) {
    const auto parsed = core::parse_mode(core::mode_name(mode));
    ASSERT_TRUE(parsed.has_value()) << core::mode_name(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(core::parse_mode("bogus").has_value());
  EXPECT_FALSE(core::parse_mode("").has_value());
}

}  // namespace
}  // namespace dynastar
