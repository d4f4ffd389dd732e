#include "sim/world.h"

#include <cassert>

#include "sim/process.h"

namespace dynastar::sim {

World::World(NetworkConfig net_config, std::uint64_t seed) : rng_(seed) {
  message_pool_.install();
  network_ = std::make_unique<Network>(*this, net_config, rng_.fork());
}

World::~World() = default;

void World::attach(std::unique_ptr<Process> proc) {
  assert(proc->id().value() == processes_.size());
  processes_.push_back(std::move(proc));
  if (started_) processes_.back()->on_start();
}

Process* World::find(ProcessId id) const {
  if (id.value() >= processes_.size()) return nullptr;
  return processes_[id.value()].get();
}

void World::deliver(ProcessId from, ProcessId to, const MessagePtr& msg) {
  Process* proc = find(to);
  if (proc == nullptr || proc->crashed_) return;
  proc->accept_delivery(from, msg);
}

void World::crash(ProcessId id) {
  Process* proc = find(id);
  assert(proc != nullptr);
  if (proc->crashed_) return;
  proc->crashed_ = true;
  proc->inbox_.clear();
  proc->serving_ = false;
  proc->on_crash();
}

void World::recover(ProcessId id) {
  Process* proc = find(id);
  assert(proc != nullptr);
  if (!proc->crashed_) return;
  proc->crashed_ = false;
  ++proc->incarnation_;
  proc->inbox_.clear();
  proc->serving_ = false;
  proc->on_recover();
}

void World::start_all() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < processes_.size(); ++i) processes_[i]->on_start();
}

void World::run_until(SimTime t) {
  message_pool_.install();
  start_all();
  sim_.run_until(t);
}

}  // namespace dynastar::sim
