// Deterministic parallel command execution: conflict-graph construction,
// wave/lane scheduling, makespan accounting, serial-equivalence of the wave
// schedule (wave-major execution matches slot order), and the full-stack
// properties the feature must preserve — bit-determinism and
// linearizability with lanes enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "common/linearizability.h"
#include "common/metric_names.h"
#include "common/rng.h"
#include "core/parallel_exec.h"
#include "core/scenario.h"
#include "core/system.h"
#include "sim/message.h"
#include "tests/test_util.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

using core::ExecIntent;
using core::VertexId;
using testutil::RecordingKvDriver;

ExecIntent reads(std::initializer_list<std::uint64_t> vs) {
  ExecIntent intent;
  for (auto v : vs) intent.reads.emplace_back(v);
  return intent;
}

ExecIntent writes(std::initializer_list<std::uint64_t> vs) {
  ExecIntent intent;
  for (auto v : vs) intent.writes.emplace_back(v);
  return intent;
}

core::CommandPtr make_cmd(std::uint64_t id,
                          std::vector<std::uint64_t> keys, bool write,
                          std::uint64_t value) {
  std::vector<ObjectId> objects;
  std::vector<VertexId> vertices;
  for (auto k : keys) {
    objects.emplace_back(k);
    vertices.emplace_back(k);
  }
  auto payload = sim::make_message<workloads::KvOp>(
      write ? workloads::KvOp::Kind::kPut : workloads::KvOp::Kind::kGet,
      value);
  return sim::make_message<core::Command>(
      id, ProcessId{900}, core::CommandType::kAccess, std::move(objects),
      std::move(vertices), std::move(payload), /*read_only_hint=*/!write);
}

// ---------------------------------------------------------------------------
// Conflict graph edge cases.

TEST(ParallelExec, IntentDedupsAndSortsDuplicateVertices) {
  const auto cmd = make_cmd(1, {5, 5, 3, 5}, /*write=*/true, 7);
  const auto intent = core::intent_for(*cmd);
  ASSERT_EQ(intent.writes.size(), 2u);
  EXPECT_EQ(intent.writes[0], VertexId{3});
  EXPECT_EQ(intent.writes[1], VertexId{5});
  EXPECT_TRUE(intent.reads.empty());
}

TEST(ParallelExec, DuplicateVerticesProduceOneEdge) {
  // Duplicated declarations must not inflate the edge count.
  const auto graph =
      core::build_conflict_graph({writes({5, 5, 5}), writes({5, 5})});
  EXPECT_EQ(graph.commands, 2u);
  EXPECT_EQ(graph.edges, 1u);
  ASSERT_EQ(graph.preds[1].size(), 1u);
  EXPECT_EQ(graph.preds[1][0], 0u);
}

TEST(ParallelExec, ReadReadDoesNotConflict) {
  const auto graph = core::build_conflict_graph({reads({7}), reads({7})});
  EXPECT_EQ(graph.edges, 0u);
  const auto schedule = core::build_schedule(graph, 4);
  EXPECT_EQ(schedule.waves, 1u);
  EXPECT_EQ(schedule.wave_of[0], 0u);
  EXPECT_EQ(schedule.wave_of[1], 0u);
  // Same wave, distinct lanes (slot-order round-robin).
  EXPECT_EQ(schedule.lane_of[0], 0u);
  EXPECT_EQ(schedule.lane_of[1], 1u);
}

TEST(ParallelExec, WriteReadOrdersAcrossWaves) {
  // write(1); read(1): the read must wave-order after the write...
  auto graph = core::build_conflict_graph({writes({1}), reads({1})});
  EXPECT_EQ(graph.edges, 1u);
  auto schedule = core::build_schedule(graph, 4);
  EXPECT_EQ(schedule.wave_of[0], 0u);
  EXPECT_EQ(schedule.wave_of[1], 1u);
  // ...and symmetrically read(1); write(1) keeps slot order.
  graph = core::build_conflict_graph({reads({1}), writes({1})});
  EXPECT_EQ(graph.edges, 1u);
  schedule = core::build_schedule(graph, 4);
  EXPECT_EQ(schedule.wave_of[0], 0u);
  EXPECT_EQ(schedule.wave_of[1], 1u);
}

TEST(ParallelExec, EmptyBatchIsANoOp) {
  const auto graph = core::build_conflict_graph({});
  EXPECT_EQ(graph.commands, 0u);
  EXPECT_EQ(graph.edges, 0u);
  EXPECT_EQ(core::build_schedule(graph, 4).waves, 0u);

  const auto stats = core::account_batch({}, {}, 4);
  EXPECT_EQ(stats.commands, 0u);
  EXPECT_EQ(stats.makespan, 0);
}

TEST(ParallelExec, ScheduleIsDeterministic) {
  Rng rng(42);
  std::vector<ExecIntent> intents;
  for (int i = 0; i < 64; ++i) {
    ExecIntent intent;
    const bool ro = rng.chance(0.4);
    auto& side = ro ? intent.reads : intent.writes;
    const std::uint64_t span = 1 + rng.uniform(0, 2);
    for (std::uint64_t j = 0; j < span; ++j)
      side.emplace_back(rng.uniform(0, 15));
    intents.push_back(std::move(intent));
  }
  const auto a = core::build_schedule(core::build_conflict_graph(intents), 4);
  const auto b = core::build_schedule(core::build_conflict_graph(intents), 4);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.wave_of, b.wave_of);
  EXPECT_EQ(a.lane_of, b.lane_of);
}

TEST(ParallelExec, IndependentItemsPackOneWave) {
  std::vector<ExecIntent> intents;
  for (std::uint64_t i = 0; i < 32; ++i) intents.push_back(writes({i}));
  const std::vector<SimTime> costs(32, microseconds(1));
  const auto stats = core::account_batch(intents, costs, 4);
  EXPECT_EQ(stats.commands, 32u);
  EXPECT_EQ(stats.conflict_edges, 0u);
  EXPECT_EQ(stats.waves, 1u);
  // 32 independent 1us items on 4 lanes: makespan is one lane's share.
  EXPECT_EQ(stats.makespan, microseconds(8));
  EXPECT_DOUBLE_EQ(stats.lane_occupancy, 1.0);
  EXPECT_EQ(stats.serial_cost, microseconds(32));
}

// ---------------------------------------------------------------------------
// Serial-equivalence replay: on every determinism seed, executing a batch in
// the 4-lane schedule's wave-major order must produce bit-identical state
// and replies to slot-order execution. Wave order extends slot order on
// conflicts, so any order that respects waves — here wave by wave, lanes in
// reverse, each lane in slot order — is equivalent.

constexpr std::uint64_t kReplayKeys = 32;

std::vector<core::CommandPtr> random_batch(std::uint64_t seed,
                                           std::size_t count) {
  Rng rng(seed);
  std::vector<core::CommandPtr> cmds;
  for (std::size_t i = 0; i < count; ++i) {
    const bool write = rng.chance(0.5);
    const std::uint64_t span = 1 + rng.uniform(0, 2);
    std::vector<std::uint64_t> keys;
    while (keys.size() < span) {
      const std::uint64_t key = rng.uniform(0, kReplayKeys - 1);
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
    }
    cmds.push_back(make_cmd(i, keys, write, rng.uniform(1, 1u << 30)));
  }
  return cmds;
}

core::ObjectStore preloaded_store() {
  core::ObjectStore store;
  for (std::uint64_t k = 0; k < kReplayKeys; ++k)
    store.put(ObjectId{k}, VertexId{k},
              std::make_shared<workloads::KvObject>(1000 + k));
  return store;
}

/// Item indices by wave, then lane (highest lane first), slot order within
/// a lane.
std::vector<std::size_t> wave_major_order(const std::vector<ExecIntent>& intents,
                                          std::uint32_t lanes) {
  const auto sched =
      core::build_schedule(core::build_conflict_graph(intents), lanes);
  std::vector<std::size_t> order;
  for (std::uint32_t wave = 0; wave < sched.waves; ++wave)
    for (std::uint32_t lane = sched.lanes; lane-- > 0;)
      for (std::size_t i = 0; i < intents.size(); ++i)
        if (sched.wave_of[i] == wave && sched.lane_of[i] == lane)
          order.push_back(i);
  return order;
}

/// Executes `cmds` in `order` and returns each command's reply values,
/// indexed by slot.
std::vector<std::vector<std::optional<std::uint64_t>>> run_batch(
    const std::vector<core::CommandPtr>& cmds, core::ObjectStore& store,
    const std::vector<std::size_t>& order) {
  workloads::KvApp app;
  std::vector<core::ExecResult> results(cmds.size());
  for (std::size_t i : order) results[i] = app.execute(*cmds[i], store);

  std::vector<std::vector<std::optional<std::uint64_t>>> observed;
  for (const auto& r : results) {
    const auto* reply = dynamic_cast<const workloads::KvReply*>(r.reply.get());
    observed.push_back(reply ? reply->values
                             : std::vector<std::optional<std::uint64_t>>{});
  }
  return observed;
}

std::vector<std::uint64_t> final_values(core::ObjectStore& store) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t k = 0; k < kReplayKeys; ++k) {
    const auto* obj =
        dynamic_cast<const workloads::KvObject*>(store.find(ObjectId{k}));
    values.push_back(obj ? obj->value : UINT64_MAX);
  }
  return values;
}

TEST(ParallelExec, LaneScheduleReplaysBitIdenticalToSerial) {
  for (const std::uint64_t seed : {42ull, 1ull, 2ull, 9ull}) {
    const auto cmds = random_batch(seed, 300);
    std::vector<ExecIntent> intents;
    for (const auto& cmd : cmds) intents.push_back(core::intent_for(*cmd));
    std::vector<std::size_t> slot_order(cmds.size());
    std::iota(slot_order.begin(), slot_order.end(), 0);
    const auto wave_order = wave_major_order(intents, 4);
    // The replay is only meaningful if the wave order really reorders.
    ASSERT_NE(wave_order, slot_order) << "seed " << seed;

    auto serial_store = preloaded_store();
    auto wave_store = preloaded_store();
    const auto serial = run_batch(cmds, serial_store, slot_order);
    const auto waves = run_batch(cmds, wave_store, wave_order);

    EXPECT_EQ(serial, waves) << "replies diverged, seed " << seed;
    EXPECT_EQ(final_values(serial_store), final_values(wave_store))
        << "state diverged, seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Full stack with lanes enabled.

struct Fingerprint {
  double completed;
  double mpart;
  double exchanged;
  std::uint64_t events;

  bool operator==(const Fingerprint& other) const {
    return completed == other.completed && mpart == other.mpart &&
           exchanged == other.exchanged && events == other.events;
  }
};

Fingerprint fingerprint_of(core::System& system) {
  return Fingerprint{system.metrics().series(metric::kCompleted).total(),
                     system.metrics().series(metric::kMultiPartition).total(),
                     system.metrics().series(metric::kObjectsExchanged).total(),
                     system.world().sim().executed_events()};
}

std::unique_ptr<core::System> build_kv_system(std::uint64_t seed,
                                              std::uint32_t lanes) {
  return core::ScenarioBuilder()
      .partitions(3)
      .seed(seed)
      .exec_lanes(lanes)
      .tune([](core::SystemConfig& c) {
        c.repartition_hint_threshold = UINT64_MAX;
      })
      .app(workloads::kv_app_factory())
      .preload_kv(kReplayKeys, workloads::KvObject(0))
      .clients(6,
               [](std::size_t) {
                 return std::make_unique<workloads::RandomKvDriver>(
                     kReplayKeys, 0.5, 0.4);
               })
      .build();
}

TEST(ParallelExec, FullStackDeterministicWithLanes) {
  auto run_once = [] {
    auto system = build_kv_system(42, 4);
    system->run_until(seconds(3));
    // Batches must actually form — otherwise this test is vacuous.
    EXPECT_GT(system->metrics().counter(metric::kExecBatches), 0.0);
    return fingerprint_of(*system);
  };
  EXPECT_TRUE(run_once() == run_once());
}

TEST(ParallelExec, LinearizableWithLanes) {
  for (const std::uint64_t seed : {11ull, 12ull}) {
    core::SystemConfig config;
    config.mode = core::ExecutionMode::kDynaStar;
    config.num_partitions = 3;
    config.seed = seed;
    config.repartitioning_enabled = true;
    config.repartition_hint_threshold = UINT64_MAX;
    config.exec_lanes = 4;
    core::System system(config, workloads::kv_app_factory());
    constexpr std::uint64_t kKeys = 10;
    core::Assignment assignment;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const PartitionId p{k % 3};
      assignment[VertexId{k}] = p;
      system.preload_object(ObjectId{k}, VertexId{k}, p,
                            workloads::KvObject(1000 + k));
    }
    system.preload_assignment(assignment);

    std::vector<KvOperation> history;
    for (int c = 0; c < 4; ++c) {
      system.add_client(
          std::make_unique<RecordingKvDriver>(kKeys, 60, &history));
    }
    system.run_until(seconds(20));

    ASSERT_GT(history.size(), 100u);
    const auto full = testutil::with_initial_puts(history, kKeys, 1000);
    const auto result = check_kv_linearizable(full);
    EXPECT_TRUE(result.linearizable)
        << "non-linearizable history with lanes; seed " << seed;
  }
}

}  // namespace
}  // namespace dynastar
