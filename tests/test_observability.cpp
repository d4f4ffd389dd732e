// Command-lifecycle tracing invariants: tracing is side-effect-free (a
// traced run is identical to an untraced one), bit-deterministic across
// same-seed runs, well-formed as a span tree, and its phase breakdown
// telescopes exactly to end-to-end latency. Also covers the per-node
// labeled metric series the servers emit.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/metric_names.h"
#include "common/report.h"
#include "common/trace.h"
#include "core/scenario.h"
#include "sim/chaos.h"
#include "tests/lin_harness.h"
#include "tests/test_util.h"
#include "workloads/chirper.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"
#include "workloads/social_graph.h"

namespace dynastar {
namespace {

core::ScenarioBuilder kv_scenario(
    std::uint64_t seed,
    core::ExecutionMode mode = core::ExecutionMode::kDynaStar) {
  return core::ScenarioBuilder()
      .execution_mode(mode)
      .partitions(2)
      .seed(seed)
      .repartitioning(false)
      .app(workloads::kv_app_factory())
      .preload_kv(16, workloads::KvObject(0))
      .clients(3, [](std::size_t) {
        return std::make_unique<workloads::RandomKvDriver>(16, 0.5, 0.4);
      });
}

struct RunResult {
  double completed = 0;
  double mpart = 0;
  double exchanged = 0;
  double latency_mean = 0;
  std::uint64_t events = 0;
  std::vector<TraceEvent> trace;
};

RunResult run(std::uint64_t seed, bool traced,
              core::ExecutionMode mode = core::ExecutionMode::kDynaStar) {
  auto system = kv_scenario(seed, mode).trace(traced).build();
  system->run_until(seconds(2));
  RunResult r;
  r.completed = system->metrics().series(metric::kCompleted).total();
  r.mpart = system->metrics().series(metric::kMultiPartition).total();
  r.exchanged = system->metrics().series(metric::kObjectsExchanged).total();
  if (const auto* latency =
          system->metrics().find_histogram(metric::kLatency))
    r.latency_mean = latency->mean();
  r.events = system->world().sim().executed_events();
  r.trace = system->world().trace().events();
  return r;
}

TEST(Observability, TracedRunMatchesUntracedRun) {
  using enum core::ExecutionMode;
  for (const auto mode : {kDynaStar, kSSMR, kDSSMR, kStar}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const auto traced = run(7, true, mode);
    const auto untraced = run(7, false, mode);
    // Tracing must never perturb the simulation: same event count, same
    // outcomes, same metrics — only the trace buffer differs.
    EXPECT_EQ(traced.events, untraced.events);
    EXPECT_EQ(traced.completed, untraced.completed);
    EXPECT_EQ(traced.mpart, untraced.mpart);
    EXPECT_EQ(traced.exchanged, untraced.exchanged);
    EXPECT_EQ(traced.latency_mean, untraced.latency_mean);
    EXPECT_GT(traced.trace.size(), 0u);
    EXPECT_EQ(untraced.trace.size(), 0u);
  }
}

TEST(Observability, SameSeedTracesAreIdentical) {
  const auto a = run(11, true);
  const auto b = run(11, true);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    ASSERT_EQ(a.trace[i], b.trace[i]) << "trace diverges at event " << i;
}

TEST(Observability, DifferentSeedTracesDiverge) {
  const auto a = run(1, true);
  const auto b = run(2, true);
  EXPECT_NE(a.trace, b.trace);
}

TEST(Observability, SpanNestingIsWellFormed) {
  const auto result = run(5, true);

  struct Span {
    SimTime issue = -1;
    SimTime complete = -1;
    std::uint64_t issues = 0;
    std::uint64_t completes = 0;
  };
  std::map<std::uint64_t, Span> spans;
  SimTime last_time = 0;
  for (const TraceEvent& ev : result.trace) {
    // Events are appended in simulation order.
    ASSERT_GE(ev.time, last_time);
    last_time = ev.time;
    switch (ev.point) {
      case TracePoint::kClientIssue: {
        Span& span = spans[ev.key];
        span.issue = ev.time;
        span.issues++;
        break;
      }
      case TracePoint::kClientComplete: {
        Span& span = spans[ev.key];
        span.complete = ev.time;
        span.completes++;
        break;
      }
      case TracePoint::kClientRoute:
      case TracePoint::kOracleRelay:
      case TracePoint::kServerDeliver:
      case TracePoint::kExecuteStart:
      case TracePoint::kReplySent: {
        // Inner lifecycle points happen after their command was issued.
        // (They may trail completion: the client completes on the first
        // replica's reply while stragglers are still executing.)
        auto it = spans.find(ev.key);
        ASSERT_NE(it, spans.end()) << "lifecycle event before issue";
        ASSERT_GE(ev.time, it->second.issue);
        break;
      }
      default:
        break;
    }
  }

  std::uint64_t completed_spans = 0;
  for (const auto& [cmd, span] : spans) {
    EXPECT_EQ(span.issues, 1u) << "command " << cmd << " issued twice";
    EXPECT_LE(span.completes, 1u);
    if (span.completes == 1) {
      EXPECT_GE(span.complete, span.issue);
      ++completed_spans;
    }
  }
  EXPECT_GT(completed_spans, 100u);
}

TEST(Observability, PhaseLatenciesSumToEndToEnd) {
  auto system = kv_scenario(3).trace().build();
  system->run_until(seconds(2));
  const auto breakdown = compute_phase_breakdown(system->world().trace());
  ASSERT_GT(breakdown.commands, 0u);
  ASSERT_EQ(breakdown.phases.size(), 6u);

  double phase_sum = 0;
  for (const auto& phase : breakdown.phases) {
    EXPECT_EQ(phase.count, breakdown.commands);
    EXPECT_GE(phase.total_ns, 0.0);
    phase_sum += phase.total_ns;
  }
  // The boundaries telescope, so the sum is exact up to double rounding —
  // far inside the 5% budget the acceptance criterion allows.
  EXPECT_NEAR(phase_sum, breakdown.e2e_total_ns,
              1e-9 * breakdown.e2e_total_ns);

  // Sanity on magnitudes: ordering and coordination dominate a
  // cross-partition KV run; execution is instantaneous in the simulator.
  const auto& order = breakdown.phases[2];
  EXPECT_GT(order.mean_ns(), 0.0);
  EXPECT_GT(breakdown.e2e_mean_ns(), order.mean_ns());
}

TEST(Observability, DisabledCollectorRecordsNothing) {
  TraceCollector trace;
  EXPECT_FALSE(trace.enabled());
  trace.record(TracePoint::kClientIssue, 10, 1, 1, 0);
  EXPECT_EQ(trace.size(), 0u);

  trace.enable();
  trace.record(TracePoint::kClientIssue, 10, 1, 1, 0, 2);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.events()[0].point, TracePoint::kClientIssue);
  EXPECT_EQ(trace.events()[0].detail, 2u);

  trace.enable(false);
  trace.record(TracePoint::kClientComplete, 20, 1, 1, 0);
  EXPECT_EQ(trace.size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(Observability, PointNamesAreStable) {
  EXPECT_STREQ(TraceCollector::point_name(TracePoint::kClientIssue),
               "client_issue");
  EXPECT_STREQ(TraceCollector::point_name(TracePoint::kOracleRelay),
               "oracle_relay");
  EXPECT_STREQ(TraceCollector::point_name(TracePoint::kChaosEvent),
               "chaos_event");
  EXPECT_STREQ(TraceCollector::point_name(TracePoint::kAdmit), "admit");
  EXPECT_STREQ(TraceCollector::point_name(TracePoint::kShed), "shed");
  EXPECT_STREQ(TraceCollector::point_name(TracePoint::kBusyReply),
               "busy_reply");
}

TEST(Observability, AdmissionTraceIsWellFormed) {
  // Tight caps on a loss-free network force the admission gates to engage.
  // Every gate decision must surface in the trace, and the admit / shed /
  // busy_reply events for one attempt must be mutually consistent:
  //   * an attempt is either admitted or shed, never both (loss-free runs
  //     order exactly one StartEntry per attempt);
  //   * every busy_reply follows a shed of the same (command, attempt) and
  //     carries a positive retry-after hint;
  //   * every command that was ever shed still completes (Busy is a
  //     deferral, not a verdict).
  std::vector<KvOperation> history;
  testutil::StatusTally tally;
  constexpr std::size_t kTraceClients = 16;
  constexpr int kTraceOps = 25;
  auto system =
      core::ScenarioBuilder()
          .execution_mode(core::ExecutionMode::kDynaStar)
          .partitions(2)
          .seed(13)
          .repartitioning(false)
          .app(workloads::kv_app_factory())
          .preload_kv(12, workloads::KvObject(0))
          .queue_cap(4)
          .clients(kTraceClients,
                   [&](std::size_t) {
                     return std::make_unique<testutil::RecordingKvDriver>(
                         12, kTraceOps, &history, &tally);
                   })
          .trace()
          .build();
  system->run_until(seconds(20));
  ASSERT_EQ(tally.completions, kTraceClients * kTraceOps)
      << "shed commands must eventually complete";

  struct Attempt {
    bool admitted = false;
    bool shed = false;
    SimTime first_shed = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint32_t>, Attempt> attempts;
  std::map<std::uint64_t, SimTime> completed;
  std::size_t admits = 0, sheds = 0, busy_replies = 0;
  for (const TraceEvent& ev : system->world().trace().events()) {
    const auto id = std::make_pair(ev.key, ev.attempt);
    switch (ev.point) {
      case TracePoint::kAdmit: {
        ++admits;
        attempts[id].admitted = true;
        break;
      }
      case TracePoint::kShed: {
        ++sheds;
        Attempt& a = attempts[id];
        if (!a.shed) a.first_shed = ev.time;
        a.shed = true;
        break;
      }
      case TracePoint::kBusyReply: {
        ++busy_replies;
        auto it = attempts.find(id);
        ASSERT_NE(it, attempts.end()) << "busy_reply without a shed";
        EXPECT_TRUE(it->second.shed) << "busy_reply without a shed";
        EXPECT_GE(ev.time, it->second.first_shed);
        EXPECT_GT(ev.detail, 0u) << "busy_reply without a retry-after hint";
        break;
      }
      case TracePoint::kClientComplete:
        completed[ev.key] = ev.time;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(admits, 0u);
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(busy_replies, 0u);
  for (const auto& [id, a] : attempts) {
    EXPECT_FALSE(a.admitted && a.shed)
        << "attempt " << id.second << " of command " << id.first
        << " was both admitted and shed";
    if (a.shed) {
      EXPECT_TRUE(completed.count(id.first))
          << "shed command " << id.first << " never completed";
    }
  }
}

TEST(Observability, LabeledMetricNamesAreCanonical) {
  EXPECT_EQ(labeled_metric_name("server.executed",
                                {{"replica", "0"}, {"partition", "2"}}),
            "server.executed{partition=2,replica=0}");
  EXPECT_EQ(labeled_metric_name("x", {}), "x");

  MetricsRegistry registry;
  registry.series("server.executed", {{"partition", "1"}, {"replica", "0"}})
      .add(0, 3.0);
  // Label order in the call does not matter: same set, same series.
  const auto* found = registry.find_series("server.executed",
                                           {{"replica", "0"},
                                            {"partition", "1"}});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->total(), 3.0);
}

TEST(Observability, ServersEmitPerNodeLabeledSeries) {
  auto system = kv_scenario(9).build();
  system->run_until(seconds(2));
  auto& metrics = system->metrics();
  double labeled_total = 0;
  for (std::uint32_t p = 0; p < 2; ++p) {
    const auto* executed =
        metrics.find_series(metric::kServerExecuted,
                            {{"partition", std::to_string(p)},
                             {"replica", "0"}});
    ASSERT_NE(executed, nullptr) << "missing labeled series for partition " << p;
    EXPECT_GT(executed->total(), 0.0);
    labeled_total += executed->total();
  }
  // Primary-replica labeled series must agree with the run-wide counter.
  EXPECT_EQ(labeled_total, metrics.series(metric::kExecuted).total());
}

// Pins: the exact trace and RunReport of fixed runs, so a change to what
// any layer records (or when) fails here. Each pin holds two 64-bit hashes,
// one of the full trace and one of the report's JSON text, and names the
// trace points its run must reach. A change meant to alter what is
// recorded updates the pinned values and says why.

/// Folds every TraceEvent field (not the raw bytes: the struct has
/// padding) into one 64-bit digest.
std::uint64_t trace_hash(const TraceCollector& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const TraceEvent& ev : trace.events()) {
    h = testutil::lin_fnv1a(h, static_cast<std::uint64_t>(ev.time));
    h = testutil::lin_fnv1a(h, ev.key);
    h = testutil::lin_fnv1a(h, ev.node);
    h = testutil::lin_fnv1a(h, ev.detail);
    h = testutil::lin_fnv1a(h, ev.attempt);
    h = testutil::lin_fnv1a(h, static_cast<std::uint64_t>(ev.point));
  }
  return h;
}

std::uint64_t text_hash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) h = testutil::lin_fnv1a(h, c);
  return h;
}

struct TracePin {
  const char* name;
  std::uint64_t trace;
  std::uint64_t report;
  std::vector<TracePoint> must_record;
};

void expect_pinned(core::System& system, const TracePin& pin) {
  SCOPED_TRACE(pin.name);
  const TraceCollector& trace = system.world().trace();
  std::set<TracePoint> seen;
  for (const TraceEvent& ev : trace.events()) seen.insert(ev.point);
  for (TracePoint point : pin.must_record)
    EXPECT_TRUE(seen.count(point))
        << "never recorded " << TraceCollector::point_name(point);

  RunInfo info;
  info.workload = pin.name;
  info.seed = system.config().seed;
  info.duration_s = to_seconds(system.world().now());
  info.partitions = system.config().num_partitions;
  const std::uint64_t report =
      text_hash(build_run_report(system.metrics(), trace, info).dump());
  EXPECT_EQ(trace_hash(trace), pin.trace)
      << "trace: 0x" << std::hex << trace_hash(trace) << std::dec << " ("
      << trace.size() << " events)";
  EXPECT_EQ(report, pin.report) << "report: 0x" << std::hex << report;
}

/// Three-partition KV with multi-partition reads and writes, traced.
core::ScenarioBuilder kv_pin_scenario(core::ExecutionMode mode) {
  return core::ScenarioBuilder()
      .execution_mode(mode)
      .partitions(3)
      .seed(5)
      .repartitioning(false)
      .app(workloads::kv_app_factory())
      .preload_kv(32, workloads::KvObject(0))
      .clients(6,
               [](std::size_t) {
                 return std::make_unique<workloads::RandomKvDriver>(32, 0.5,
                                                                    0.4);
               })
      .trace();
}

/// Builds the scenario and runs it for one simulated second.
std::unique_ptr<core::System> kv_pin_system(const core::ScenarioBuilder& b) {
  auto system = b.build();
  system->run_until(seconds(1));
  return system;
}

/// Determinism.PinnedChirperRun's run, traced: plans apply mid-run.
std::unique_ptr<core::System> chirper_pin_system() {
  auto graph = workloads::generate_social_graph(300, 3, 9);
  auto directory = workloads::chirper::make_directory(graph);
  auto zipf = std::make_shared<ZipfGenerator>(300, 0.95);
  workloads::chirper::WorkloadMix mix;
  auto system =
      core::ScenarioBuilder()
          .partitions(2)
          .tune([](core::SystemConfig& c) {
            c.repartition_hint_threshold = 10'000;
            c.min_repartition_interval = seconds(1);
          })
          .app(workloads::chirper::chirper_app_factory())
          .preload([&](core::System& s) {
            workloads::chirper::setup(s, graph,
                                      workloads::chirper::Placement::kRandom);
          })
          .clients(4,
                   [&](std::size_t) {
                     return std::make_unique<workloads::chirper::ChirperDriver>(
                         directory, mix, zipf);
                   })
          .trace()
          .build();
  system->run_until(seconds(5));
  return system;
}

/// A partition follower and an oracle replica crash while commands are in
/// flight; the follower falls below its peers' log floor and recovers by a
/// chunked snapshot install.
std::unique_ptr<core::System> crash_pin_system() {
  auto system =
      kv_pin_scenario(core::ExecutionMode::kDynaStar)
          .partitions(2)
          .seed(11)
          .tune([](core::SystemConfig& c) {
            c.paxos.checkpoint_interval = 16;
            c.paxos.catchup_window = 16;
            c.paxos.transfer_chunk_bytes = 256;
            c.client_timeout_base = milliseconds(300);
            c.client_timeout_jitter = milliseconds(20);
            c.client_timeout_cap = seconds(2);
            c.client_max_attempts = 0;
          })
          .build();
  const auto& topology = system->topology();
  const ProcessId follower =
      topology.group(core::group_of(PartitionId{0})).replicas[1];
  const ProcessId oracle = topology.group(core::kOracleGroup).replicas[1];
  system->run_until(milliseconds(20));
  system->world().crash(follower);
  system->world().crash(oracle);
  system->run_until(milliseconds(80));
  system->world().recover(follower);
  system->world().recover(oracle);
  system->run_until(seconds(2));
  EXPECT_GE(system->metrics().counter(metric::kServerSnapshotInstalls), 1.0);
  return system;
}

/// Tight admission caps and a nemesis-driven surge of open-loop clients:
/// both tiers shed and answer Busy.
std::unique_ptr<core::System> surge_pin_system() {
  auto system =
      kv_pin_scenario(core::ExecutionMode::kDynaStar)
          .seed(13)
          .queue_cap(4)
          .surge_clients(12,
                         [](std::size_t) {
                           return std::make_unique<workloads::RandomKvDriver>(
                               32, 0.5, 0.2);
                         })
          .build();
  sim::ChaosConfig chaos;
  chaos.seed = 3;
  chaos.start = milliseconds(200);
  chaos.horizon = seconds(1);
  chaos.crash_events = 0;
  chaos.surge_events = 1;
  sim::ChaosInjector injector(system->world(), chaos);
  injector.arm();
  system->run_until(seconds(2));
  return system;
}

TEST(Observability, PinnedTracesAndReports) {
  using enum core::ExecutionMode;
  using enum TracePoint;
  // Every run records the plain lifecycle plus these extras.
  auto points = [](std::vector<TracePoint> extra) {
    extra.insert(extra.end(),
                 {kClientIssue, kClientRoute, kOracleRelay, kServerDeliver,
                  kExecuteStart, kReplySent, kClientComplete, kMcastDelivered,
                  kPaxosDecided});
    return extra;
  };

  expect_pinned(
      *kv_pin_system(kv_pin_scenario(kDynaStar).read_leases().exec_lanes(4)),
      {"dynastar+leases+lanes", 0x6ce855cdd9cc6379, 0x5a50c9e593685293,
       points({kTransferSent, kTransferReceived, kReturnSent, kReturnReceived,
               kExecParallel, kLeaseGrant, kLeaseRead, kLeaseFallback,
               kLeaseRevoke})});
  expect_pinned(*kv_pin_system(kv_pin_scenario(kSSMR)),
                {"ssmr", 0x4b2a51c04591900a, 0x48bc1b09b93daaa2,
                 points({kTransferSent, kTransferReceived})});
  expect_pinned(*kv_pin_system(kv_pin_scenario(kDSSMR).read_leases()),
                {"dssmr+leases", 0x6356f3b42030f7d1, 0xfd9cb83ef9351208,
                 points({kTransferSent, kTransferReceived, kLeaseGrant,
                         kLeaseRead, kLeaseRevoke})});
  expect_pinned(*kv_pin_system(kv_pin_scenario(kStar).exec_lanes(4)),
                {"star+lanes", 0x6ce16c5ae0420035, 0xc378b06f727d7b2f,
                 points({kStarEpoch, kExecParallel})});
  expect_pinned(*chirper_pin_system(),
                {"chirper", 0x2082a0dfcdcf743c, 0x5844e8303a2b2e88,
                 points({kTransferSent, kTransferReceived, kReturnSent,
                         kReturnReceived, kPlanApplied, kCheckpoint})});
  expect_pinned(*crash_pin_system(),
                {"crash", 0x2abe0c53eb55ea1f, 0x593ab0d9f97ab9b8,
                 points({kCheckpoint, kRecoveryRestore, kSnapshotInstall,
                         kStateTransferStart, kStateTransferEnd})});
  expect_pinned(*surge_pin_system(),
                {"surge", 0x94fca4773ead2ecc, 0x1b000cc524fc0d9b,
                 points({kClientRetry, kAdmit, kShed, kBusyReply,
                         kChaosEvent})});
}

}  // namespace
}  // namespace dynastar
