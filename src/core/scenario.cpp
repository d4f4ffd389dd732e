#include "core/scenario.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace dynastar::core {

ScenarioBuilder& ScenarioBuilder::net_preset(std::string_view spec) {
  if (spec == "lan") {
    config_.net_sites = 0;
    return *this;
  }
  unsigned sites = 0;
  char tail = 0;
  const std::string s(spec);
  if (std::sscanf(s.c_str(), "wan:%udc%c", &sites, &tail) == 1 && sites > 0) {
    config_.net_sites = sites;
    return *this;
  }
  std::fprintf(stderr, "ScenarioBuilder: bad net preset %s (want lan|wan:<N>dc)\n",
               s.c_str());
  std::abort();
}

ScenarioBuilder& ScenarioBuilder::repartitioning(bool enabled) {
  config_.repartitioning_enabled = enabled;
  if (!enabled) config_.repartition_hint_threshold = UINT64_MAX;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::preload(std::function<void(System&)> fn) {
  preload_fns_.push_back(std::move(fn));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::clients(std::size_t count,
                                          DriverFactory factory) {
  client_batches_.push_back(
      ClientBatch{count, std::move(factory), /*surge_only=*/false});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::surge_clients(std::size_t count,
                                                DriverFactory factory) {
  client_batches_.push_back(
      ClientBatch{count, std::move(factory), /*surge_only=*/true});
  return *this;
}

std::unique_ptr<System> ScenarioBuilder::build() const {
  assert(app_factory_ && "ScenarioBuilder: .app(factory) is required");
  auto system = std::make_unique<System>(config_, app_factory_);

  for (const KvPreload& preload : kv_preloads_) {
    Assignment assignment;
    for (std::uint64_t k = 0; k < preload.keys; ++k) {
      const PartitionId p{k % config_.num_partitions};
      assignment[VertexId{k}] = p;
      system->preload_object(ObjectId{k}, VertexId{k}, p, preload.prototype);
    }
    system->preload_assignment(assignment);
  }
  for (const auto& fn : preload_fns_) fn(*system);

  std::size_t index = 0;
  for (const ClientBatch& batch : client_batches_) {
    for (std::size_t i = 0; i < batch.count; ++i)
      system->add_client(batch.factory(index++), batch.surge_only);
  }

  if (trace_) system->world().trace().enable();
  return system;
}

}  // namespace dynastar::core
