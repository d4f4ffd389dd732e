// Overload protection: bounded admission queues, Busy shedding, client
// retry budgets, and metastable-failure hardening under load surges.
//
// The scenarios drive the full DynaStar stack well past saturation with
// surge-only clients (open-loop bursts gated on the world surge flag), one
// of them coinciding with a crash-recovery snapshot install. The properties:
//   * goodput degrades gracefully — commands are shed with Busy replies at
//     admission instead of queueing without bound, and every scripted
//     command still completes successfully afterwards (no metastable
//     collapse);
//   * shedding happens strictly before execution, so linearizability and
//     at-most-once are preserved;
//   * a bounded retry budget turns sustained overload into a terminal
//     kOverloaded completion instead of an infinite retry storm;
//   * shed decisions ride the ordered log, so same-seed runs stay
//     bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/linearizability.h"
#include "core/client.h"
#include "core/system.h"
#include "sim/chaos.h"
#include "tests/test_util.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

constexpr std::uint64_t kKeys = 12;
constexpr int kClients = 4;
constexpr int kOpsPerClient = 40;
constexpr std::size_t kSurgeClients = 32;

/// Preloads key k with value 1000 + k, matching
/// with_initial_puts(history, kKeys, 1000) in the linearizability checks.
/// (testutil::preload writes a flat value, which the synthetic initial
/// puts would contradict.)
void preload_per_key(core::System& system) {
  core::Assignment assignment;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const PartitionId p{k % system.config().num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p,
                          workloads::KvObject(1000 + k));
  }
  system.preload_assignment(assignment);
}

struct OverloadRun {
  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  std::vector<std::string> chaos_log;
  std::string fingerprint;
  double server_shed = 0;
  double oracle_shed = 0;
  double snapshot_installs = 0;
};

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

/// Config with tight admission caps: a surge of extra closed-loop clients
/// overruns the caps, so the gates engage without inflating CPU costs.
core::SystemConfig overload_config(std::uint64_t seed,
                                   std::uint32_t partitions) {
  auto config = testutil::config_for(core::ExecutionMode::kDynaStar,
                                     partitions);
  config.seed = seed;
  config.client_timeout_base = milliseconds(300);
  config.client_timeout_jitter = milliseconds(20);
  config.client_timeout_cap = seconds(2);
  config.client_max_attempts = 0;  // retry forever: liveness is the property
  config.server_queue_cap = 8;
  config.oracle_inflight_cap = 16;
  return config;
}

OverloadRun run_surge_scenario(std::uint64_t system_seed,
                               std::uint64_t chaos_seed) {
  auto config = overload_config(system_seed, 3);
  config.network.drop_probability = 0.01;
  config.network.duplicate_probability = 0.01;
  // Small checkpoint/catch-up windows: the long crash below outruns its
  // peers' retained logs, so recovery REQUIRES a snapshot install — and the
  // recovery-pinned surge window lands right on top of it.
  config.paxos.checkpoint_interval = 32;
  config.paxos.catchup_window = 8;

  core::System system(config, workloads::kv_app_factory());
  preload_per_key(system);

  OverloadRun run;
  for (int c = 0; c < kClients; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        kKeys, kOpsPerClient, &run.history, &run.tally));
  }
  for (std::size_t c = 0; c < kSurgeClients; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(kKeys, 0.5, 0.2),
        /*surge_only=*/true);
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
  chaos.long_crash_events = 1;
  chaos.long_min_downtime = milliseconds(1500);
  chaos.long_max_downtime = milliseconds(2500);
  chaos.surge_events = 2;
  chaos.surge_min_duration = milliseconds(800);
  chaos.surge_max_duration = milliseconds(1500);
  chaos.surge_with_recovery = true;  // first burst lands on the recovery

  sim::ChaosInjector injector(system.world(), chaos);
  injector.arm();

  // Faults land in [1s, ~11.5s] and surge windows end by ~13s; the tail
  // gives the scripted clients calm time to drain their remaining retries.
  system.run_until(seconds(18));

  run.chaos_log = injector.log();
  run.server_shed = system.metrics().counter("server.shed");
  run.oracle_shed = system.metrics().counter("oracle.shed");
  run.snapshot_installs = system.metrics().counter("server.snapshot_installs");

  std::ostringstream fp;
  fp << "events=" << system.world().sim().executed_events();
  for (const char* name : {"completed", "executed", "client.timeouts",
                           "client.retransmits", "client.shed"}) {
    const auto* series = system.metrics().find_series(name);
    fp << ' ' << name << '=' << (series ? series->total() : 0.0);
  }
  for (const char* name :
       {"server.shed", "oracle.shed", "client.retries_exhausted",
        "server.snapshot_installs", "chaos.events"}) {
    fp << ' ' << name << '=' << system.metrics().counter(name);
  }
  fp << " history=" << run.history.size() << '/' << std::hex
     << history_hash(run.history);
  for (const auto& line : run.chaos_log) fp << '|' << line;
  run.fingerprint = fp.str();
  return run;
}

TEST(Overload, ShedsUnderSurgeAndRecovers) {
  const OverloadRun run = run_surge_scenario(/*system_seed=*/21,
                                             /*chaos_seed=*/77);

  // The nemesis produced both surge windows, one pinned to the recovery.
  std::size_t begins = 0, ends = 0;
  bool pinned = false;
  for (const auto& line : run.chaos_log) {
    if (line.find("surge begin") != std::string::npos) ++begins;
    if (line.find("surge end") != std::string::npos) ++ends;
    if (line.find("(at recovery)") != std::string::npos) pinned = true;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_TRUE(pinned) << "no surge window coincided with a crash recovery";
  EXPECT_GE(run.snapshot_installs, 1.0)
      << "the long crash never forced a snapshot install";

  // The admission gates engaged: the 2x surge was shed, not queued.
  EXPECT_GT(run.server_shed + run.oracle_shed, 0.0)
      << "saturation surge produced no Busy replies";

  // Liveness: every scripted command still completed successfully — Busy
  // retries (unbounded budget here) eventually got through after the surge.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kClients) * kOpsPerClient;
  EXPECT_EQ(run.tally.completions, expected)
      << "clients hung under overload";
  EXPECT_EQ(run.tally.ok, expected);
  EXPECT_EQ(run.tally.other, 0u);
  ASSERT_EQ(run.history.size(), expected);

  // Safety: shedding happens strictly before execution, so the surviving
  // history is still linearizable (duplicates answered from reply caches).
  const auto full = testutil::with_initial_puts(run.history, kKeys, 1000);
  const auto result = check_kv_linearizable(full);
  EXPECT_TRUE(result.linearizable)
      << "non-linearizable history with shedding enabled; stuck op "
      << (result.stuck_operation ? static_cast<long>(*result.stuck_operation)
                                 : -1);
}

TEST(Overload, SameSeedGivesBitIdenticalRuns) {
  // Shed decisions ride the ordered log (StartEntry.shed), so the whole
  // overload run — including which commands were shed — must be a pure
  // function of (config, seed).
  const OverloadRun a = run_surge_scenario(/*system_seed=*/21,
                                           /*chaos_seed=*/77);
  const OverloadRun b = run_surge_scenario(/*system_seed=*/21,
                                           /*chaos_seed=*/77);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "overload run is not a pure function of (config, seed)";
}

TEST(Overload, RetryBudgetExhaustionIsTerminal) {
  // Sustained (not transient) overload with a tiny retry budget and a
  // refill interval longer than the run: clients must fail fast with
  // kOverloaded instead of retrying forever.
  auto config = overload_config(/*seed=*/5, /*partitions=*/1);
  config.client_timeout_jitter = 0;
  config.server_queue_cap = 4;
  config.oracle_inflight_cap = 4;
  config.client_retry_budget = 2;
  config.client_retry_token_interval = seconds(100);  // no refill in-run

  core::System system(config, workloads::kv_app_factory());
  testutil::preload(system, kKeys, 1000);

  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  constexpr int kLoadClients = 24;
  constexpr int kOps = 20;
  for (int c = 0; c < kLoadClients; ++c) {
    system.add_client(std::make_unique<testutil::RecordingKvDriver>(
        kKeys, kOps, &history, &tally));
  }
  system.run_until(seconds(5));

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kLoadClients) * kOps;
  EXPECT_EQ(tally.completions, expected)
      << "budget exhaustion must terminate commands, not hang them";
  EXPECT_GT(tally.other, 0u)
      << "sustained overload never exhausted a retry budget";
  EXPECT_EQ(system.metrics().counter("client.retries_exhausted"),
            static_cast<double>(tally.other))
      << "every non-ok/non-timeout completion should be a kOverloaded";
  EXPECT_GT(system.metrics().counter("server.shed") +
                system.metrics().counter("oracle.shed"),
            0.0);

  // Linearizability under shedding is covered by ShedsUnderSurgeAndRecovers;
  // a 24-client fully-concurrent history is intractable for the checker.
}

TEST(Overload, SurgeClientsIdleWithoutSurgeWindows) {
  // Without a surge window the surge-only clients must contribute zero
  // load — the run behaves exactly like one without them.
  auto config = overload_config(/*seed=*/9, /*partitions=*/2);
  core::System system(config, workloads::kv_app_factory());
  testutil::preload(system, kKeys, 1000);

  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  system.add_client(std::make_unique<testutil::RecordingKvDriver>(
      kKeys, kOpsPerClient, &history, &tally));
  for (std::size_t c = 0; c < 8; ++c) {
    system.add_client(
        std::make_unique<workloads::RandomKvDriver>(kKeys, 0.5, 0.2),
        /*surge_only=*/true);
  }
  system.run_until(seconds(10));

  EXPECT_EQ(tally.completions,
            static_cast<std::uint64_t>(kOpsPerClient));
  // Only the recording client issued commands: completions == its ops.
  EXPECT_EQ(system.metrics().series("completed").total(),
            static_cast<double>(kOpsPerClient));
  EXPECT_EQ(system.metrics().counter("server.shed"), 0.0);
  EXPECT_EQ(system.metrics().counter("oracle.shed"), 0.0);
}

// --- pure backoff arithmetic (satellite: edge cases) ---

TEST(Overload, TimeoutBackoffCapsAtConfiguredCeiling) {
  core::SystemConfig config;
  config.client_timeout_base = milliseconds(100);
  config.client_timeout_multiplier = 2.0;
  config.client_timeout_cap = seconds(1);
  EXPECT_EQ(core::ClientCore::timeout_backoff(config, 1), milliseconds(100));
  EXPECT_EQ(core::ClientCore::timeout_backoff(config, 2), milliseconds(200));
  EXPECT_EQ(core::ClientCore::timeout_backoff(config, 4), milliseconds(800));
  // Attempt 5 would be 1600ms — capped.
  EXPECT_EQ(core::ClientCore::timeout_backoff(config, 5), seconds(1));
  // Far past the cap: no overflow, still the cap.
  EXPECT_EQ(core::ClientCore::timeout_backoff(config, 60), seconds(1));
}

TEST(Overload, TimeoutBackoffWithUnitMultiplierIsFlat) {
  // jitter = 0 + multiplier = 1 is the degenerate fixed-timeout config;
  // every attempt must wait exactly the base.
  core::SystemConfig config;
  config.client_timeout_base = milliseconds(250);
  config.client_timeout_multiplier = 1.0;
  config.client_timeout_jitter = 0;
  config.client_timeout_cap = seconds(4);
  for (std::uint32_t attempt = 1; attempt <= 16; ++attempt)
    EXPECT_EQ(core::ClientCore::timeout_backoff(config, attempt),
              milliseconds(250));
}

TEST(Overload, BusyBackoffNeverShortensBelowComputedFloor) {
  core::SystemConfig config;
  config.client_timeout_multiplier = 2.0;
  config.client_timeout_cap = seconds(1);
  // No hint: the exponential floor applies.
  EXPECT_EQ(core::ClientCore::busy_backoff(config, 1, 0), milliseconds(2));
  EXPECT_EQ(core::ClientCore::busy_backoff(config, 4, 0), milliseconds(16));
  // A longer server hint overrides the floor…
  EXPECT_EQ(core::ClientCore::busy_backoff(config, 1, milliseconds(10)),
            milliseconds(10));
  // …but a shorter hint never shortens the wait below it.
  EXPECT_EQ(core::ClientCore::busy_backoff(config, 4, milliseconds(5)),
            milliseconds(16));
  // The floor itself is capped.
  EXPECT_EQ(core::ClientCore::busy_backoff(config, 40, 0), seconds(1));
  // A hint beyond the cap still wins: the server knows its own queue.
  EXPECT_EQ(core::ClientCore::busy_backoff(config, 40, seconds(2)),
            seconds(2));
}

}  // namespace
}  // namespace dynastar
