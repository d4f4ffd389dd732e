// Figure 8: queries served by the oracle over time (Chirper).
//
// Steady state: clients have every location cached, so the oracle serves
// ~zero queries. A repartition (triggered mid-run) invalidates every cache;
// queries spike as clients refresh, then decay back toward zero.
#include <cstdio>

#include "bench/chirper_common.h"

using namespace dynastar;

int main() {
  const std::size_t duration = bench::full_mode() ? 160 : 80;
  const std::size_t trigger_at = duration / 2;

  auto config = baselines::config_for("dynastar", 4);
  config.repartition_hint_threshold = 1'000'000'000;  // manual trigger below

  bench::ChirperParams params;
  params.clients_per_partition = 10;
  auto setup = bench::make_chirper(config, bench::chirper::Placement::kRandom,
                                   params);
  // Warm up and let every client fill its cache, then force a repartition.
  setup.system->run_until(seconds(static_cast<std::int64_t>(trigger_at)));
  setup.system->request_repartition();
  setup.system->run_until(seconds(static_cast<std::int64_t>(duration)));

  std::printf("=== Figure 8: throughput at the oracle (queries/s) ===\n");
  std::printf("(repartition requested at t=%zus)\n", trigger_at);
  std::printf("%4s %12s %12s\n", "t(s)", "oracle q/s", "client retries/s");
  const auto& queries = setup.system->metrics().series("oracle.queries");
  const auto& retries = setup.system->metrics().series("client.retries");
  for (std::size_t t = 0; t < duration; ++t)
    std::printf("%4zu %12.0f %12.0f\n", t, queries.at(t), retries.at(t));
  std::printf(
      "\nReading guide (vs paper Fig. 8): near-zero oracle load while caches\n"
      "are valid; the repartition invalidates every client cache, queries\n"
      "spike, then decay to ~zero as caches repopulate. The oracle is not a\n"
      "bottleneck.\n");
  return 0;
}
