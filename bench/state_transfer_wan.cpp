// WAN state-transfer benchmark: drives the full DynaStar stack on a
// wan:3dc topology (replicas, acceptors and clients striped across three
// simulated datacenters with thin inter-site links) through a scripted
// fault sequence, and reports goodput (kOk completions/sec) over two
// windows:
//
//   steady    [1s, 6s)   WAN topology, all replicas up
//   degraded  [6s, 11s)  inter-site bandwidth collapsed 10x; a replica
//                        crashes at 6.2s and recovers at 8.2s, so its
//                        chunked snapshot install runs entirely inside
//                        the collapse window
//
// The bandwidth-adaptation gate (the "gates" of
// bench/baselines/BENCH_transfer.baseline.json, checked by
// scripts/check_report.py --baseline) puts a floor under
//   degraded_ratio = degraded goodput / steady goodput
// i.e. the chunked transfer trickling over the starved links must not
// starve command execution — windowed chunk pulls with per-chunk
// retransmit backoff keep the recovery in the background while quorums on
// unaffected state keep deciding.
//
// Everything is scripted (fixed seed, fixed instants), so the emitted
// BENCH_transfer.json is reproducible run-to-run.
//
// Usage: state_transfer_wan [output.json]   (default BENCH_transfer.json)
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
constexpr std::size_t kClients = 8;

constexpr std::int64_t kSteadyFrom = 1, kSteadyTo = 6;
constexpr std::int64_t kDegradedFrom = 6, kDegradedTo = 11;

}  // namespace
}  // namespace dynastar

int main(int argc, char** argv) {
  using namespace dynastar;
  using namespace dynastar::bench;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_transfer.json";

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
          .net_preset("wan:3dc")
          .tune([](core::SystemConfig& c) {
            // The 2-second outage below outruns peers' retained logs, so
            // the mid-collapse recovery REQUIRES a snapshot install — and
            // stable checkpoints at most one interval old keep it on the
            // chunked path. Small chunks force a real multi-chunk pull.
            c.paxos.checkpoint_interval = 16;
            c.paxos.catchup_window = 16;
            c.paxos.transfer_chunk_bytes = 512;
          })
          .app(workloads::kv_app_factory())
          .preload_kv(kKeys, workloads::KvObject(0))
          .clients(kClients, driver_factory)
          .build();

  auto& world = system->world();
  // 10x inter-site bandwidth collapse over the whole degraded window.
  world.sim().schedule_at(seconds(kDegradedFrom), [&world] {
    world.network().set_bandwidth_scale(0.1);
  });
  world.sim().schedule_at(seconds(kDegradedTo), [&world] {
    world.network().set_bandwidth_scale(1.0);
  });
  // Crash a partition-0 follower 200 ms into the collapse; it recovers
  // while bandwidth is still down and must pull its chunks over the
  // starved links.
  const ProcessId victim =
      system->topology().group(core::group_of(PartitionId{0})).replicas[1];
  world.sim().schedule_at(seconds(kDegradedFrom) + milliseconds(200),
                          [&world, victim] { world.crash(victim); });
  world.sim().schedule_at(seconds(kDegradedFrom) + milliseconds(2200),
                          [&world, victim] { world.recover(victim); });

  std::printf("state_transfer_wan: wan:3dc, %zu clients, 10x bandwidth "
              "collapse + crash/recover inside the window...\n", kClients);
  system->run_until(seconds(kDegradedTo) + seconds(1));

  const Window steady = count_window(oks, kSteadyFrom, kSteadyTo);
  const Window degraded = count_window(oks, kDegradedFrom, kDegradedTo);
  const double degraded_ratio = degraded.goodput() / steady.goodput();

  const double chunks_sent =
      system->metrics().counter(metric::kTransferChunksSent);
  const double chunks_retx =
      system->metrics().counter(metric::kTransferChunksRetransmitted);
  const double snapshot_installs =
      system->metrics().counter(metric::kServerSnapshotInstalls);

  std::printf("  steady   : %6llu ok in %.0fs = %8.1f/s\n",
              static_cast<unsigned long long>(steady.ok_commands),
              steady.seconds(), steady.goodput());
  std::printf("  degraded : %6llu ok in %.0fs = %8.1f/s  (ratio %.2f)\n",
              static_cast<unsigned long long>(degraded.ok_commands),
              degraded.seconds(), degraded.goodput(), degraded_ratio);
  std::printf("  transfer : %.0f chunks (%.0f retransmitted), "
              "%.0f snapshot installs\n",
              chunks_sent, chunks_retx, snapshot_installs);

  Json::Object metrics;
  add_window_metrics(metrics, "steady", steady);
  add_window_metrics(metrics, "degraded", degraded);
  metrics["degraded_ratio"] = degraded_ratio;
  metrics["transfer.chunks_sent"] = chunks_sent;
  metrics["transfer.chunks_retransmitted"] = chunks_retx;
  metrics["transfer.snapshot_installs"] = snapshot_installs;
  return write_bench_json(
      out_path, "transfer",
      Json::Object{
          {"net", std::string("wan:3dc")},
          {"clients", static_cast<std::uint64_t>(kClients)},
          {"transfer_chunk_bytes", static_cast<std::uint64_t>(512)},
          {"bandwidth_drop_factor", 0.1},
          {"seed", static_cast<std::uint64_t>(42)},
          {"windows_s", Json::Object{
                            {"steady", Json::Array{kSteadyFrom, kSteadyTo}},
                            {"degraded",
                             Json::Array{kDegradedFrom, kDegradedTo}},
                        }},
      },
      std::move(metrics));
}
