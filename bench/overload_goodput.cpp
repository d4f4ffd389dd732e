// Overload goodput benchmark: drives the full DynaStar stack through a
// scripted 2x client surge — with a crash-recovery snapshot install landing
// inside the surge window — and reports goodput (kOk completions/sec) over
// three windows:
//
//   baseline  [1s,  6s)  steady closed-loop clients only
//   surge     [6s, 10s)  2x extra surge clients; one replica crashes at
//                        6.2s and recovers at 8.2s via snapshot install
//   recovery  [11s, 15s) surge over, all replicas up
//
// The metastable-failure gate (the "gates" of
// bench/baselines/BENCH_overload.baseline.json, checked by
// scripts/check_report.py --baseline) puts floors under
//   surge_ratio    = surge goodput    / baseline goodput
//   recovery_ratio = recovery goodput / baseline goodput
// i.e. bounded admission queues + Busy shedding keep the system doing useful
// work under 2x-saturation-plus-fault pressure, and it returns to its calm
// rate instead of collapsing into a retry storm.
//
// Everything is scripted (fixed seed, fixed crash/surge instants), so the
// emitted BENCH_overload.json is reproducible run-to-run.
//
// Usage: overload_goodput [output.json]   (default BENCH_overload.json)
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/json.h"
#include "common/metric_names.h"
#include "core/scenario.h"
#include "core/system.h"
#include "sim/world.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

constexpr std::uint64_t kKeys = 12;
constexpr std::size_t kSteadyClients = 8;
constexpr std::size_t kSurgeClients = 16;  // 2x the steady population

constexpr std::int64_t kBaselineFrom = 1, kBaselineTo = 6;
constexpr std::int64_t kSurgeFrom = 6, kSurgeTo = 10;
constexpr std::int64_t kRecoveryFrom = 11, kRecoveryTo = 15;

}  // namespace
}  // namespace dynastar

int main(int argc, char** argv) {
  using namespace dynastar;
  using namespace dynastar::bench;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_overload.json";

  std::vector<SimTime> oks;
  const auto driver_factory = [&oks](std::size_t) {
    return std::make_unique<GoodputDriver>(
        std::make_unique<workloads::RandomKvDriver>(kKeys, 0.5, 0.2), &oks);
  };

  auto system =
      core::ScenarioBuilder()
          .execution_mode(core::ExecutionMode::kDynaStar)
          .partitions(3)
          .seed(42)
          .queue_cap(8)
          .tune([](core::SystemConfig& c) {
            c.oracle_inflight_cap = 16;
            // A 2-second outage outruns peers' retained logs, so the
            // recovery inside the surge window REQUIRES a snapshot install.
            c.paxos.checkpoint_interval = 32;
            c.paxos.catchup_window = 8;
          })
          .app(workloads::kv_app_factory())
          .preload_kv(kKeys, workloads::KvObject(0))
          .clients(kSteadyClients, driver_factory)
          .surge_clients(kSurgeClients, driver_factory)
          .build();

  auto& world = system->world();
  world.sim().schedule_at(seconds(kSurgeFrom), [&world] {
    world.begin_surge();
  });
  world.sim().schedule_at(seconds(kSurgeTo), [&world] { world.end_surge(); });
  // Crash a partition-0 follower 200 ms into the surge; it recovers while
  // the surge is still running and must install a snapshot under load.
  const ProcessId victim =
      system->topology().group(core::group_of(PartitionId{0})).replicas[1];
  world.sim().schedule_at(seconds(kSurgeFrom) + milliseconds(200),
                          [&world, victim] { world.crash(victim); });
  world.sim().schedule_at(seconds(kSurgeFrom) + milliseconds(2200),
                          [&world, victim] { world.recover(victim); });

  std::printf("overload_goodput: %zu steady + %zu surge clients, "
              "caps server=8 oracle=16, crash+recover inside surge...\n",
              kSteadyClients, kSurgeClients);
  system->run_until(seconds(kRecoveryTo));

  const Window baseline = count_window(oks, kBaselineFrom, kBaselineTo);
  const Window surge = count_window(oks, kSurgeFrom, kSurgeTo);
  const Window recovery = count_window(oks, kRecoveryFrom, kRecoveryTo);
  const double surge_ratio = surge.goodput() / baseline.goodput();
  const double recovery_ratio = recovery.goodput() / baseline.goodput();

  const double server_shed = system->metrics().counter(metric::kServerShed);
  const double oracle_shed = system->metrics().counter(metric::kOracleShed);
  const double snapshot_installs =
      system->metrics().counter(metric::kServerSnapshotInstalls);

  std::printf("  baseline : %6llu ok in %.0fs = %8.1f/s\n",
              static_cast<unsigned long long>(baseline.ok_commands),
              baseline.seconds(), baseline.goodput());
  std::printf("  surge    : %6llu ok in %.0fs = %8.1f/s  (ratio %.2f)\n",
              static_cast<unsigned long long>(surge.ok_commands),
              surge.seconds(), surge.goodput(), surge_ratio);
  std::printf("  recovery : %6llu ok in %.0fs = %8.1f/s  (ratio %.2f)\n",
              static_cast<unsigned long long>(recovery.ok_commands),
              recovery.seconds(), recovery.goodput(), recovery_ratio);
  std::printf("  shed     : server %.0f, oracle %.0f; snapshot installs %.0f\n",
              server_shed, oracle_shed, snapshot_installs);

  Json::Object metrics;
  add_window_metrics(metrics, "baseline", baseline);
  add_window_metrics(metrics, "surge", surge);
  add_window_metrics(metrics, "recovery", recovery);
  metrics["surge_ratio"] = surge_ratio;
  metrics["recovery_ratio"] = recovery_ratio;
  metrics["shed.server"] = server_shed;
  metrics["shed.oracle"] = oracle_shed;
  metrics["shed.total"] = server_shed + oracle_shed;
  metrics["snapshot_installs"] = snapshot_installs;
  return write_bench_json(
      out_path, "overload",
      Json::Object{
          {"steady_clients", static_cast<std::uint64_t>(kSteadyClients)},
          {"surge_clients", static_cast<std::uint64_t>(kSurgeClients)},
          {"server_queue_cap", static_cast<std::uint64_t>(8)},
          {"oracle_inflight_cap", static_cast<std::uint64_t>(16)},
          {"seed", static_cast<std::uint64_t>(42)},
          {"windows_s",
           Json::Object{
               {"baseline", Json::Array{kBaselineFrom, kBaselineTo}},
               {"surge", Json::Array{kSurgeFrom, kSurgeTo}},
               {"recovery", Json::Array{kRecoveryFrom, kRecoveryTo}},
           }},
      },
      std::move(metrics));
}
