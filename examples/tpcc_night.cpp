// TPC-C example: an order-processing evening across four warehouses, with
// a mid-run repartition after state was loaded badly (randomly scattered).
//
// Run:  ./tpcc_night
#include <cstdio>
#include <memory>

#include "baselines/registry.h"
#include "core/system.h"
#include "workloads/tpcc.h"

using namespace dynastar;
namespace tpcc = workloads::tpcc;

int main() {
  const std::uint32_t warehouses = 4;
  auto config = baselines::config_for("dynastar", warehouses);
  config.repartition_hint_threshold = UINT64_MAX;  // we trigger explicitly

  tpcc::Scale scale;  // scaled-down tables, standard transaction mix
  core::System system(config, tpcc::tpcc_app_factory(scale));
  tpcc::setup(system, scale, warehouses, tpcc::Placement::kRandom);

  for (std::uint32_t c = 0; c < 24; ++c) {
    system.add_client(std::make_unique<tpcc::TpccDriver>(
        scale, warehouses, c % warehouses + 1, c / warehouses % 10 + 1));
  }

  std::printf("phase 1: randomly scattered districts (every transaction\n"
              "         coordinates across partitions)...\n");
  system.run_until(seconds(8));
  const double before = system.metrics().series("completed").total();

  std::printf("phase 2: ops team asks the oracle for a repartition...\n");
  system.request_repartition();
  system.run_until(seconds(16));
  const double after = system.metrics().series("completed").total() - before;

  std::printf("\ntransactions completed: %.0f (first 8s) vs %.0f (last 8s)\n",
              before, after);
  const auto& mpart = system.metrics().series("mpart");
  const auto& executed = system.metrics().series("executed");
  auto window_pct = [&](std::size_t from, std::size_t to) {
    double m = 0, e = 0;
    for (std::size_t t = from; t < to; ++t) {
      m += mpart.at(t);
      e += executed.at(t);
    }
    return e > 0 ? 100.0 * m / e : 0.0;
  };
  std::printf("multi-partition rate: %.1f%% before, %.1f%% after\n",
              window_pct(0, 8), window_pct(10, 16));
  std::printf("\nAfter METIS places each warehouse-and-districts cluster on\n"
              "one partition, only inherent remote TPC-C traffic (remote\n"
              "stock, remote payments) crosses partitions.\n");
  return after > before ? 0 : 1;
}
