#include "core/parallel_exec.h"

#include <algorithm>

namespace dynastar::core {
namespace {

void sorted_unique(std::vector<VertexId>& v) {
  std::sort(v.begin(), v.end(),
            [](VertexId a, VertexId b) { return a.value() < b.value(); });
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool intersects(const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].value() < b[j].value())
      ++i;
    else if (b[j].value() < a[i].value())
      ++j;
    else
      return true;
  }
  return false;
}

bool conflicts(const ExecIntent& a, const ExecIntent& b) {
  // Read-read never conflicts; any pair involving a write to a shared
  // vertex does.
  return intersects(a.writes, b.writes) || intersects(a.writes, b.reads) ||
         intersects(a.reads, b.writes);
}

}  // namespace

ExecIntent intent_for(const Command& cmd) {
  ExecIntent intent;
  // Shared read-only predicate with the lease path: only kAccess commands
  // can be reads (creates/deletes always write, whatever the hint says).
  if (is_read_only(cmd))
    intent.reads = cmd.vertices;
  else
    intent.writes = cmd.vertices;
  sorted_unique(intent.reads);
  sorted_unique(intent.writes);
  return intent;
}

ConflictGraph build_conflict_graph(const std::vector<ExecIntent>& intents) {
  ConflictGraph graph;
  graph.commands = intents.size();
  graph.preds.resize(intents.size());
  for (std::size_t i = 1; i < intents.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (conflicts(intents[i], intents[j])) {
        graph.preds[i].push_back(static_cast<std::uint32_t>(j));
        ++graph.edges;
      }
    }
  }
  return graph;
}

LaneSchedule build_schedule(const ConflictGraph& graph, std::uint32_t lanes) {
  LaneSchedule sched;
  sched.lanes = std::max<std::uint32_t>(1, lanes);
  const std::size_t n = graph.commands;
  sched.wave_of.resize(n, 0);
  sched.lane_of.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t wave = 0;
    for (std::uint32_t j : graph.preds[i])
      wave = std::max(wave, sched.wave_of[j] + 1);
    sched.wave_of[i] = wave;
    sched.waves = std::max(sched.waves, wave + 1);
  }
  // Slot-order round-robin within each wave: deterministic and balanced.
  std::vector<std::uint32_t> next_lane(sched.waves, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t& cursor = next_lane[sched.wave_of[i]];
    sched.lane_of[i] = cursor;
    cursor = (cursor + 1) % sched.lanes;
  }
  return sched;
}

BatchStats account_batch(const std::vector<ExecIntent>& intents,
                         const std::vector<SimTime>& costs,
                         std::uint32_t lanes) {
  BatchStats stats;
  const std::size_t n = intents.size();
  stats.commands = n;
  if (n == 0) return stats;

  const ConflictGraph graph = build_conflict_graph(intents);
  const LaneSchedule sched = build_schedule(graph, lanes);
  stats.conflict_edges = graph.edges;
  stats.waves = sched.waves;

  // Each wave costs its busiest lane; waves are sequential.
  std::vector<SimTime> lane_time(sched.lanes, 0);
  for (std::uint32_t wave = 0; wave < sched.waves; ++wave) {
    std::fill(lane_time.begin(), lane_time.end(), 0);
    SimTime span = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (sched.wave_of[i] != wave) continue;
      SimTime& t = lane_time[sched.lane_of[i]];
      t += costs[i];
      span = std::max(span, t);
      stats.serial_cost += costs[i];
    }
    stats.makespan += span;
  }
  const double capacity =
      static_cast<double>(sched.lanes) * static_cast<double>(stats.makespan);
  stats.lane_occupancy =
      capacity > 0 ? static_cast<double>(stats.serial_cost) / capacity : 1.0;
  return stats;
}

}  // namespace dynastar::core
