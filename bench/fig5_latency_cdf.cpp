// Figure 5: CDF of command latency for the mix workload (85% timeline /
// 15% post) on different partition counts, DynaStar vs S-SMR*.
//
// Shape to check: S-SMR* sits left of (below) DynaStar for ~80% of the
// distribution — DynaStar's multi-partition commands pay the extra
// variable-return round trip — while both tails stretch with partition
// count.
// A second entry point, `fig5_latency_cdf --bench-lease [out.json]`, reuses
// the latency-CDF machinery for the read-lease gate: the same seeded KV
// workload runs leases-off then leases-on; leases must cut the
// multi-partition read-only median while leaving the single-partition median
// in place (bounds: the "gates" of bench/baselines/BENCH_lease.baseline.json,
// checked by scripts/check_report.py --baseline).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/chirper_common.h"
#include "common/json.h"
#include "common/metric_names.h"
#include "workloads/kv_drivers.h"

using namespace dynastar;

namespace {

std::vector<Histogram::CdfPoint> run_cdf(core::ExecutionMode mode,
                                         std::uint32_t partitions) {
  auto config = mode == core::ExecutionMode::kDynaStar
                    ? baselines::config_for("dynastar", partitions)
                    : baselines::config_for("ssmr", partitions);
  config.repartition_hint_threshold = 1'000'000'000;
  bench::ChirperParams params;
  params.clients_per_partition = 7;  // ~75% of saturation
  auto setup = bench::make_chirper(config, bench::chirper::Placement::kOptimized,
                                   params);
  setup.system->run_until(seconds(4));
  const auto* latency = setup.system->metrics().find_histogram("latency");
  return latency ? latency->cdf() : std::vector<Histogram::CdfPoint>{};
}

void print_cdf(const char* label,
               const std::vector<Histogram::CdfPoint>& cdf) {
  std::printf("# %s: latency_ms cumulative_fraction (decile samples)\n", label);
  double next = 0.1;
  for (const auto& point : cdf) {
    if (point.fraction + 1e-12 < next) continue;
    while (next <= point.fraction + 1e-12) {
      std::printf("  %8.3f  %.2f\n", to_millis(point.value), next);
      next += 0.1;
    }
    if (next > 0.999) break;
  }
}

// ---------------------------------------------------------------------------
// --bench-lease: leases-off vs leases-on latency on a read-heavy KV mix.

constexpr std::uint32_t kLeasePartitions = 4;
constexpr std::size_t kLeaseClients = 12;
// Keys k map to partition k % 4 (the static preload plan). The shared
// read-mostly region lives on partitions 0 and 1 (kSharedSlots keys on
// each); every client also owns one private key on partition 2 or 3, so the
// single-partition population shares no server group with the leased one
// and the gate isolates the lease effect from load coupling.
constexpr std::uint64_t kSharedSlots = 1;
constexpr std::uint64_t kLeaseKeys = 4 * kLeaseClients;
constexpr std::uint64_t kLeaseSeed = 7;
constexpr double kLeaseMultiFraction = 0.8;
constexpr double kSharedWriteFraction = 0.04;
constexpr double kPrivateWriteFraction = 0.2;
constexpr std::int64_t kLeaseWarmupS = 1;
constexpr std::int64_t kLeaseHorizonS = 6;

struct OpSample {
  bool multi = false;
  bool read_only = false;
  double ms = 0.0;
};

/// Wraps a driver and records, per kOk completion after warmup, whether the
/// command spanned partitions, whether it was read-only, and its latency.
/// Pure observation: `next` forwards untouched, so the command sequence is
/// identical leases-off and leases-on (same seed, no chaos).
class LeaseProbeDriver final : public core::ClientDriver {
 public:
  LeaseProbeDriver(std::unique_ptr<core::ClientDriver> inner,
                   std::vector<OpSample>* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    return inner_->next(rng, now);
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    inner_->on_result(spec, status, payload, issued_at, completed_at);
    if (status != core::ReplyStatus::kOk) return;
    if (issued_at < seconds(kLeaseWarmupS)) return;
    // The plan is static (repartitioning off), so vertex -> partition is the
    // preload layout: key % partitions.
    bool seen[kLeasePartitions] = {};
    std::uint32_t distinct = 0;
    for (const auto& [object, vertex] : spec.objects) {
      bool& slot = seen[vertex.value() % kLeasePartitions];
      if (!slot) ++distinct;
      slot = true;
    }
    sink_->push_back(
        {distinct > 1, spec.read_only, to_millis(completed_at - issued_at)});
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  std::vector<OpSample>* sink_;
};

/// The lease workload proper:
///   * multi-partition ops (kLeaseMultiFraction): one shared key on
///     partition 0 plus one on partition 1, issued back-to-back so the hot
///     pair actually contends — read-only except a kSharedWriteFraction
///     sliver of puts that exercises revocation;
///   * single-partition ops otherwise: the client's private key on
///     partition 2 or 3, kPrivateWriteFraction puts, followed by a 3 ms
///     think pause so partitions 2/3 stay uncongested and the single
///     population measures fixed costs, not load coupling.
/// All randomness comes from the per-client RNG handed to next(), so the
/// leases-off and leases-on runs issue identical command sequences.
class LeaseMixDriver final : public core::ClientDriver {
 public:
  explicit LeaseMixDriver(std::uint64_t private_key)
      : private_key_(private_key) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime /*now*/) override {
    if (pause_next_ != 0) {
      const SimTime pause = pause_next_;
      pause_next_ = 0;
      return core::CommandSpec::pause_for(pause);
    }
    core::CommandSpec spec;
    bool write = false;
    if (rng.chance(kLeaseMultiFraction)) {
      const std::uint64_t a = 4 * rng.uniform(0, kSharedSlots - 1);      // p0
      const std::uint64_t b = 4 * rng.uniform(0, kSharedSlots - 1) + 1;  // p1
      spec.objects.emplace_back(ObjectId{a}, core::VertexId{a});
      spec.objects.emplace_back(ObjectId{b}, core::VertexId{b});
      write = rng.chance(kSharedWriteFraction);
    } else {
      pause_next_ = milliseconds(3);
      spec.objects.emplace_back(ObjectId{private_key_},
                                core::VertexId{private_key_});
      write = rng.chance(kPrivateWriteFraction);
    }
    spec.payload = sim::make_message<workloads::KvOp>(
        write ? workloads::KvOp::Kind::kPut : workloads::KvOp::Kind::kGet,
        rng.uniform(0, 1u << 30));
    spec.read_only = !write;
    return spec;
  }

 private:
  std::uint64_t private_key_;
  SimTime pause_next_ = 0;
};

/// Private key for client `i`: partition 2 or 3, disjoint across clients.
constexpr std::uint64_t private_key_for(std::size_t i) {
  return 4 * static_cast<std::uint64_t>(i) + 2 + (i % 2);
}

struct LeaseRun {
  std::vector<OpSample> samples;
  double lease_reads = 0.0;
  double lease_fallbacks = 0.0;
  double ok_commands = 0.0;
};

LeaseRun run_lease(bool leases_on) {
  LeaseRun run;
  auto system =
      core::ScenarioBuilder()
          .execution_mode(core::ExecutionMode::kDynaStar)
          .partitions(kLeasePartitions)
          .seed(kLeaseSeed)
          .repartitioning(false)
          .read_leases(leases_on)
          .app(workloads::kv_app_factory())
          .preload_kv(kLeaseKeys, workloads::KvObject(0))
          .clients(kLeaseClients,
                   [&run](std::size_t i) {
                     return std::make_unique<LeaseProbeDriver>(
                         std::make_unique<LeaseMixDriver>(private_key_for(i)),
                         &run.samples);
                   })
          .build();
  system->run_until(seconds(kLeaseHorizonS));
  run.lease_reads = system->metrics().counter(metric::kServerLeaseReads);
  run.lease_fallbacks =
      system->metrics().counter(metric::kServerLeaseFallbacks);
  run.ok_commands = static_cast<double>(run.samples.size());
  return run;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Json decile_cdf(std::vector<double> values) {
  Json::Array cdf;
  if (values.empty()) return cdf;
  std::sort(values.begin(), values.end());
  for (int d = 1; d <= 10; ++d) {
    std::size_t idx = values.size() * d / 10;
    if (idx > 0) --idx;
    Json::Array point;
    point.reserve(2);
    point.emplace_back(static_cast<double>(d) / 10.0);
    point.emplace_back(values[idx]);
    cdf.emplace_back(std::move(point));
  }
  return cdf;
}

/// One run's samples split into the three gated populations:
/// multi-partition read-only (the leased path), single-partition (must not
/// move), multi-partition writes (still borrow/return). Adds the run's
/// `<side>.*` metrics and its two CDFs under detail[side].
struct LeaseSummary {
  double multi_ro_median = 0.0;
  double single_median = 0.0;
  double multi_write_median = 0.0;
};

LeaseSummary summarize_lease(const LeaseRun& run, const std::string& side,
                             Json::Object& metrics, Json& detail) {
  std::vector<double> multi_ro;
  std::vector<double> single;
  std::vector<double> multi_write;
  for (const OpSample& s : run.samples) {
    if (!s.multi)
      single.push_back(s.ms);
    else if (s.read_only)
      multi_ro.push_back(s.ms);
    else
      multi_write.push_back(s.ms);
  }
  const LeaseSummary out{median_of(multi_ro), median_of(single),
                         median_of(multi_write)};
  metrics[side + ".ok_commands"] = run.ok_commands;
  metrics[side + ".lease_reads"] = run.lease_reads;
  metrics[side + ".lease_fallbacks"] = run.lease_fallbacks;
  metrics[side + ".multi_ro.count"] =
      static_cast<std::uint64_t>(multi_ro.size());
  metrics[side + ".multi_ro.median_ms"] = out.multi_ro_median;
  metrics[side + ".single.count"] = static_cast<std::uint64_t>(single.size());
  metrics[side + ".single.median_ms"] = out.single_median;
  metrics[side + ".multi_write.count"] =
      static_cast<std::uint64_t>(multi_write.size());
  metrics[side + ".multi_write.median_ms"] = out.multi_write_median;
  detail[side] = Json::Object{
      {"multi_ro_cdf", decile_cdf(std::move(multi_ro))},
      {"single_cdf", decile_cdf(std::move(single))},
  };
  return out;
}

/// Relative change from `before` to `after`; 0 when there is no `before`.
double shift(double before, double after) {
  return before > 0 ? (after - before) / before : 0.0;
}

int run_lease_bench(const char* out_arg) {
  const std::string out_path = out_arg != nullptr ? out_arg : "BENCH_lease.json";
  std::printf("=== Read-lease latency gate: DynaStar, %u partitions, "
              "%zu clients, %.0f%% multi (shared keys on p0+p1), "
              "private singles on p2/p3 ===\n",
              kLeasePartitions, kLeaseClients, kLeaseMultiFraction * 100);

  const LeaseRun off = run_lease(false);
  const LeaseRun on = run_lease(true);
  Json::Object metrics;
  Json detail = Json::Object{};
  const LeaseSummary off_summary = summarize_lease(off, "off", metrics, detail);
  const LeaseSummary on_summary = summarize_lease(on, "on", metrics, detail);

  const double reduction =
      off_summary.multi_ro_median > 0
          ? 1.0 - on_summary.multi_ro_median / off_summary.multi_ro_median
          : 0.0;
  const double single_shift =
      shift(off_summary.single_median, on_summary.single_median);
  const double write_shift =
      shift(off_summary.multi_write_median, on_summary.multi_write_median);
  const double fallback_fraction =
      on.lease_reads > 0 ? on.lease_fallbacks / on.lease_reads : 0.0;

  std::printf("  multi-partition read-only median: %.3f ms -> %.3f ms "
              "(%.1f%% reduction)\n",
              off_summary.multi_ro_median, on_summary.multi_ro_median,
              reduction * 100);
  std::printf("  single-partition median         : %.3f ms -> %.3f ms "
              "(%+.2f%%)\n",
              off_summary.single_median, on_summary.single_median,
              single_shift * 100);
  std::printf("  leases-on: %.0f leased reads, %.0f fallbacks, %.0f ok "
              "commands measured\n",
              on.lease_reads, on.lease_fallbacks, on.ok_commands);

  metrics["multi_ro_median_reduction"] = reduction;
  metrics["single_median_shift"] = single_shift;
  metrics["multi_write_median_shift"] = write_shift;
  metrics["lease_fallback_fraction"] = fallback_fraction;
  return bench::write_bench_json(
      out_path, "lease",
      Json::Object{
          {"partitions", static_cast<std::uint64_t>(kLeasePartitions)},
          {"keys", kLeaseKeys},
          {"clients", static_cast<std::uint64_t>(kLeaseClients)},
          {"seed", kLeaseSeed},
          {"shared_keys", 2 * kSharedSlots},
          {"multi_fraction", kLeaseMultiFraction},
          {"shared_write_fraction", kSharedWriteFraction},
          {"private_write_fraction", kPrivateWriteFraction},
          {"warmup_s", kLeaseWarmupS},
          {"horizon_s", kLeaseHorizonS},
      },
      std::move(metrics), std::move(detail));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--bench-lease") == 0)
    return run_lease_bench(argc > 2 ? argv[2] : nullptr);

  std::vector<std::uint32_t> sweep{2, 4, 8};
  if (bench::full_mode()) sweep.push_back(16);

  std::printf("=== Figure 5: latency CDFs, mix workload ===\n");
  for (std::uint32_t k : sweep) {
    std::printf("\n--- %u partitions ---\n", k);
    print_cdf("DynaStar", run_cdf(core::ExecutionMode::kDynaStar, k));
    print_cdf("S-SMR*", run_cdf(core::ExecutionMode::kSSMR, k));
  }
  std::printf(
      "\nReading guide (vs paper Fig. 5): S-SMR* achieves lower latency than\n"
      "DynaStar for ~80%% of the load; DynaStar's tail reflects the extra\n"
      "data returned to the source partitions after each borrow.\n");
  return 0;
}
