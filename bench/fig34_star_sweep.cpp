// STAR vs DynaStar multi-partition-ratio sweep (companion to the paper's
// Figs. 3/4 scalability studies, extended with the STAR baseline).
//
// Both systems run the same uniform KV workload — identical keyspace, client
// population, seed, and network/CPU parameters via the baseline registry —
// while the fraction of commands touching two random keys sweeps from 0% to
// 90%. Uniform random key pairs defeat DynaStar's workload-graph
// repartitioning on purpose: the sweep isolates the *execution* trade the
// two designs make on irreducibly multi-partition work.
//
// Expected shape (gated by the "gates" of
// bench/baselines/BENCH_star.baseline.json via scripts/check_report.py
// --baseline, on crossover.low_margin and crossover.high_margin):
//   - low multi ratio: DynaStar wins — STAR funnels every command through
//     the master partition's replicas (full replica, sequenced in every
//     multicast), so its singles throughput is capped by one partition.
//   - high multi ratio: STAR wins — deferred master epochs execute
//     multi-partition batches locally while DynaStar stalls owner pumps on
//     borrow/return round-trips per command.
//
// Usage: fig34_star_sweep [output.json]   (default BENCH_star.json)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "bench/bench_common.h"
#include "common/json.h"
#include "common/metric_names.h"
#include "core/scenario.h"
#include "core/system.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"

namespace dynastar {
namespace {

constexpr std::uint32_t kPartitions = 4;
constexpr std::uint64_t kKeys = 256;
constexpr std::size_t kClients = 32;
constexpr std::uint64_t kSeed = 7;
constexpr std::int64_t kWarmupS = 2;
constexpr std::int64_t kDurationS = 10;

const double kMultiFractions[] = {0.0, 0.05, 0.2, 0.5, 0.9};

/// Counts kOk completions inside the measurement window; `completed` alone
/// would also count kTimeout / kOverloaded completions.
class OkCounter final : public core::ClientDriver {
 public:
  OkCounter(std::unique_ptr<core::ClientDriver> inner, std::uint64_t* oks)
      : inner_(std::move(inner)), oks_(oks) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    return inner_->next(rng, now);
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    if (status == core::ReplyStatus::kOk && completed_at >= seconds(kWarmupS))
      ++*oks_;
    inner_->on_result(spec, status, payload, issued_at, completed_at);
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  std::uint64_t* oks_;
};

struct Point {
  std::uint64_t ok_commands = 0;
  double star_epochs = 0;
  double star_deferred = 0;

  [[nodiscard]] double tps() const {
    return static_cast<double>(ok_commands) / (kDurationS - kWarmupS);
  }
};

Point run_point(const char* system_name, double multi_fraction) {
  Point point;
  auto system =
      core::ScenarioBuilder()
          .config(baselines::config_for(system_name, kPartitions, kSeed))
          .app(workloads::kv_app_factory())
          .preload_kv(kKeys, workloads::KvObject(0))
          .clients(kClients,
                   [&point, multi_fraction](std::size_t) {
                     return std::make_unique<OkCounter>(
                         std::make_unique<workloads::RandomKvDriver>(
                             kKeys, 0.5, multi_fraction),
                         &point.ok_commands);
                   })
          .build();
  system->run_until(seconds(kDurationS));
  point.star_epochs = system->metrics().counter(metric::kStarEpochs);
  point.star_deferred = system->metrics().counter(metric::kStarDeferred);
  return point;
}

}  // namespace
}  // namespace dynastar

int main(int argc, char** argv) {
  using namespace dynastar;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_star.json";

  Json::Object metrics;
  std::printf("fig34_star_sweep: %u partitions, %llu keys, %zu clients, "
              "[%llds, %llds) window\n",
              kPartitions, static_cast<unsigned long long>(kKeys), kClients,
              static_cast<long long>(kWarmupS),
              static_cast<long long>(kDurationS));
  const std::size_t points = std::size(kMultiFractions);
  double low_margin = 0, high_margin = 0;
  Json::Array fractions;
  for (std::size_t i = 0; i < points; ++i) {
    const double multi = kMultiFractions[i];
    fractions.emplace_back(multi);
    const Point dynastar_point = run_point("dynastar", multi);
    const Point star_point = run_point("star", multi);
    std::printf("  multi=%.2f  dynastar %8.1f/s   star %8.1f/s   "
                "(epochs %.0f, deferred %.0f)\n",
                multi, dynastar_point.tps(), star_point.tps(),
                star_point.star_epochs, star_point.star_deferred);
    // One metric prefix per sweep point: multi_<percent of multi-key cmds>.
    const std::string point =
        "multi_" + std::to_string(std::lround(multi * 100)) + ".";
    metrics[point + "dynastar.ok_commands"] = dynastar_point.ok_commands;
    metrics[point + "dynastar.tps"] = dynastar_point.tps();
    metrics[point + "star.ok_commands"] = star_point.ok_commands;
    metrics[point + "star.tps"] = star_point.tps();
    metrics[point + "star.epochs"] = star_point.star_epochs;
    metrics[point + "star.deferred"] = star_point.star_deferred;
    // The crossover: each design's lead at its own end of the sweep.
    if (i == 0) low_margin = dynastar_point.tps() / star_point.tps();
    if (i + 1 == points) high_margin = star_point.tps() / dynastar_point.tps();
  }
  metrics["crossover.low_margin"] = low_margin;
  metrics["crossover.high_margin"] = high_margin;

  return bench::write_bench_json(
      out_path, "star",
      Json::Object{
          {"partitions", static_cast<std::uint64_t>(kPartitions)},
          {"keys", kKeys},
          {"clients", static_cast<std::uint64_t>(kClients)},
          {"warmup_s", kWarmupS},
          {"duration_s", kDurationS},
          {"seed", kSeed},
          {"multi_fractions", std::move(fractions)},
      },
      std::move(metrics));
}
