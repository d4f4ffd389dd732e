#include "core/execution.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace dynastar::core {

const char* mode_name(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kDynaStar: return "dynastar";
    case ExecutionMode::kSSMR: return "ssmr";
    case ExecutionMode::kDSSMR: return "dssmr";
    case ExecutionMode::kStar: return "star";
  }
  return "unknown";
}

std::optional<ExecutionMode> parse_mode(std::string_view name) {
  for (ExecutionMode mode : kAllModes)
    if (name == mode_name(mode)) return mode;
  return std::nullopt;
}

PartitionId choose_target(const std::vector<PartitionId>& dests,
                          const std::vector<PartitionId>& owner_per_object) {
  assert(!dests.empty() && std::is_sorted(dests.begin(), dests.end()));
  // Winner = most objects; dests ascend, so a tie keeps the lowest id.
  PartitionId best = dests.front();
  std::ptrdiff_t best_count = 0;
  for (PartitionId p : dests) {
    const std::ptrdiff_t count =
        std::count(owner_per_object.begin(), owner_per_object.end(), p);
    if (count > best_count) {
      best = p;
      best_count = count;
    }
  }
  return best;
}

Route route_command(ExecutionMode mode,
                    const std::vector<PartitionId>& owner_per_object) {
  Route route;
  route.dests = owner_per_object;
  std::sort(route.dests.begin(), route.dests.end());
  route.dests.erase(std::unique(route.dests.begin(), route.dests.end()),
                    route.dests.end());
  route.multi = route.dests.size() > 1;
  route.target = choose_target(route.dests, owner_per_object);
  if (mode == ExecutionMode::kStar) {
    if (route.multi) {
      // Deferred to the master's next fully-replicated epoch; the owners
      // never see the command — they receive the master's state update at
      // the epoch switch instead.
      route.dests.assign(1, kStarMaster);
      route.target = kStarMaster;
    } else {
      // The owner executes and replies; the master applies silently so its
      // full replica stays fresh for the next epoch.
      route.dests.push_back(kStarMaster);
      std::sort(route.dests.begin(), route.dests.end());
      route.dests.erase(std::unique(route.dests.begin(), route.dests.end()),
                        route.dests.end());
    }
  }
  return route;
}

}  // namespace dynastar::core
