// Shared test helpers: a mock Env for unit-testing protocol cores without
// a simulator and a fake upcall host for bare Paxos and multicast cores,
// plus, for the system-level tests, a canonical small-system config, KV
// preloading, tail-throughput measurement, and a history-recording driver
// for linearizability checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/linearizability.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/system.h"
#include "multicast/member.h"
#include "paxos/replica.h"
#include "sim/env.h"
#include "workloads/kv.h"

namespace dynastar::testutil {

/// The sinks a MockEnv owns; a base class so they are constructed before
/// the sim::Env base that refers to them.
struct MockSinks {
  TraceCollector trace_sink;
  MetricsRegistry metrics_sink;
};

/// Env for driving one core by hand: captures outgoing messages, holds
/// timers until advance_to(), and owns its own trace collector and metrics
/// registry. Time only moves when the test sets it.
class MockEnv final : private MockSinks, public sim::Env {
 public:
  explicit MockEnv(ProcessId self = ProcessId{99})
      : sim::Env(trace_sink, metrics_sink), self_(self) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SimTime now() const override { return now_; }
  void send_message(ProcessId to, const sim::MessagePtr& msg) override {
    sent.emplace_back(to, msg);
  }
  void start_timer(SimTime delay, std::function<void()> fn) override {
    ++timers_started;
    timers.emplace_back(now_ + delay, std::move(fn));
  }
  void consume_cpu(SimTime /*amount*/) override {}
  Rng& random() override { return rng_; }

  /// Fires every timer due at or before `t` (single pass).
  void advance_to(SimTime t) {
    now_ = t;
    auto due = std::move(timers);
    timers.clear();
    for (auto& [when, fn] : due) {
      if (when <= t)
        fn();
      else
        timers.emplace_back(when, std::move(fn));
    }
  }

  /// Every sent message of type T, in send order.
  template <typename T>
  std::vector<const T*> all_of() const {
    std::vector<const T*> found;
    for (const auto& [to, msg] : sent)
      if (auto* m = dynamic_cast<const T*>(msg.get())) found.push_back(m);
    return found;
  }

  /// The last sent message if it is a T, else null.
  template <typename T>
  const T* last_as() const {
    return sent.empty() ? nullptr
                        : dynamic_cast<const T*>(sent.back().second.get());
  }

  std::vector<std::pair<ProcessId, sim::MessagePtr>> sent;
  std::vector<std::pair<SimTime, std::function<void()>>> timers;
  std::uint64_t timers_started = 0;
  SimTime now_ = 0;

 private:
  ProcessId self_;
  Rng rng_{1};
};

/// A test message carrying one number.
struct Payload final : sim::Message {
  explicit Payload(std::uint64_t v) : value(v) {}
  std::uint64_t value;
};

/// The upcall host of a bare paxos::ReplicaCore (its learner and snapshot
/// owner) or multicast::MemberCore (its application): records what is
/// delivered, admits every message, serves each capture as a Payload that
/// numbers it, and rejects every install.
class FakeHost : public paxos::Learner, public multicast::Application {
 public:
  void deliver(const sim::MessagePtr& value) override { record(value); }
  void on_lead() override {}
  void on_adeliver(const multicast::McastData& data) override {
    delivered_uids.push_back(data.uid);
    record(data.payload);
  }
  bool admit(const multicast::McastData& /*data*/) override { return true; }
  void on_shed_deliver(const multicast::McastData& /*data*/) override {}
  sim::MessagePtr on_checkpoint_boundary() override { return capture(); }
  sim::MessagePtr capture_fresh() override { return capture(); }
  bool install_snapshot(const sim::MessagePtr& /*snapshot*/) override {
    return false;
  }

  /// The number of every delivered Payload, in delivery order.
  std::vector<std::uint64_t> delivered;
  /// The uid of every a-delivered message, in delivery order.
  std::vector<std::uint64_t> delivered_uids;
  /// Captures so far; the n-th capture is Payload(n).
  std::uint64_t captures = 0;

 private:
  void record(const sim::MessagePtr& value) {
    if (const auto* payload = dynamic_cast<const Payload*>(value.get()))
      delivered.push_back(payload->value);
  }
  sim::MessagePtr capture() { return sim::make_message<Payload>(++captures); }
};

/// Small fixed-partition config with repartitioning disabled — the baseline
/// for fault/chaos tests where plan churn would obscure the property under
/// test.
inline core::SystemConfig config_for(core::ExecutionMode mode,
                                     std::uint32_t num_partitions = 2) {
  core::SystemConfig config;
  config.mode = mode;
  config.num_partitions = num_partitions;
  config.repartitioning_enabled = false;
  config.repartition_hint_threshold = UINT64_MAX;
  return config;
}

/// Preloads `keys` zero-valued KV objects round-robin across partitions.
inline void preload(core::System& system, std::uint64_t keys,
                    std::uint64_t initial_value = 0) {
  core::Assignment assignment;
  workloads::KvObject object(initial_value);
  for (std::uint64_t k = 0; k < keys; ++k) {
    const PartitionId p{k % system.config().num_partitions};
    assignment[core::VertexId{k}] = p;
    system.preload_object(ObjectId{k}, core::VertexId{k}, p, object);
  }
  system.preload_assignment(assignment);
}

/// Sum of the `completed` series over the last `last_n` one-second buckets.
inline double tail_throughput(core::System& system, std::size_t last_n) {
  const auto& completed = system.metrics().series("completed");
  double total = 0;
  const std::size_t buckets = completed.num_buckets();
  for (std::size_t b = buckets > last_n ? buckets - last_n : 0; b < buckets;
       ++b)
    total += completed.at(b);
  return total;
}

/// Per-status completion counts across a run (shared by several drivers).
struct StatusTally {
  std::uint64_t completions = 0;
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t other = 0;
};

/// Issues random single/multi-key gets and puts, recording a KvOperation
/// per completed command. Feed the result to check_kv_linearizable.
class RecordingKvDriver final : public core::ClientDriver {
 public:
  RecordingKvDriver(std::uint64_t num_keys, int max_ops,
                    std::vector<KvOperation>* history,
                    StatusTally* tally = nullptr, double multi_fraction = 0.4,
                    double write_fraction = 0.5)
      : num_keys_(num_keys),
        remaining_(max_ops),
        history_(history),
        tally_(tally),
        multi_fraction_(multi_fraction),
        write_fraction_(write_fraction) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime /*now*/) override {
    if (remaining_-- <= 0) return std::nullopt;
    core::CommandSpec spec;
    const bool multi = rng.chance(multi_fraction_);
    const std::uint64_t span = multi ? 2 + rng.uniform(0, 1) : 1;
    std::vector<std::uint64_t> keys;
    while (keys.size() < span) {
      const std::uint64_t key = rng.uniform(0, num_keys_ - 1);
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
    }
    for (std::uint64_t key : keys)
      spec.objects.emplace_back(ObjectId{key}, core::VertexId{key});
    const bool write = rng.chance(write_fraction_);
    spec.payload = sim::make_message<workloads::KvOp>(
        write ? workloads::KvOp::Kind::kPut : workloads::KvOp::Kind::kGet,
        rng.uniform(1, 1u << 30));
    spec.read_only = !write;
    return spec;
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    if (tally_ != nullptr) {
      ++tally_->completions;
      if (status == core::ReplyStatus::kOk)
        ++tally_->ok;
      else if (status == core::ReplyStatus::kTimeout)
        ++tally_->timeouts;
      else
        ++tally_->other;
    }
    if (status != core::ReplyStatus::kOk) return;
    const auto* reply = dynamic_cast<const workloads::KvReply*>(payload.get());
    const auto* op = dynamic_cast<const workloads::KvOp*>(spec.payload.get());
    if (reply == nullptr || op == nullptr) return;
    KvOperation record;
    record.is_put = op->kind == workloads::KvOp::Kind::kPut;
    record.value = op->value;
    for (const auto& [obj, vertex] : spec.objects)
      record.keys.push_back(obj.value());
    record.observed = reply->values;
    record.invoke_time = issued_at;
    record.response_time = completed_at;
    history_->push_back(std::move(record));
  }

 private:
  std::uint64_t num_keys_;
  int remaining_;
  std::vector<KvOperation>* history_;
  StatusTally* tally_;
  double multi_fraction_;
  double write_fraction_;
};

/// Seeds a recorded history with instantaneous before-time-zero puts for
/// the preloaded values, so "absent" never aliases a legal read.
inline std::vector<KvOperation> with_initial_puts(
    const std::vector<KvOperation>& history, std::uint64_t keys,
    std::uint64_t base_value) {
  std::vector<KvOperation> full;
  full.reserve(history.size() + keys);
  for (std::uint64_t k = 0; k < keys; ++k) {
    KvOperation init;
    init.is_put = true;
    init.keys = {k};
    init.value = base_value + k;
    init.observed = {};  // unconstrained observation
    init.invoke_time = -2;
    init.response_time = -1;
    full.push_back(init);
  }
  full.insert(full.end(), history.begin(), history.end());
  return full;
}

}  // namespace dynastar::testutil
