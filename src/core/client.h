// ClientCore: DynaStar's client-side library (Algorithm 1 + the location
// cache of §4.3). Runs a closed loop: issue one command, wait for its
// reply, issue the next. Commands whose vertices are all cached are
// multicast straight to the involved partitions; everything else (creates,
// cache misses, retries) goes through the oracle.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/config.h"
#include "core/protocol.h"
#include "core/types.h"
#include "multicast/client.h"
#include "paxos/topology.h"
#include "sim/env.h"

namespace dynastar::core {

/// What the application wants executed next. A spec with an empty `objects`
/// list is a *pause*: the client idles for `pause` and asks again.
struct CommandSpec {
  CommandType type = CommandType::kAccess;
  /// omega with home vertices: (object, vertex) pairs.
  std::vector<std::pair<ObjectId, VertexId>> objects;
  sim::MessagePtr payload;
  /// Declares the command mutates nothing (see Command::read_only).
  bool read_only = false;
  SimTime pause = milliseconds(10);

  static CommandSpec pause_for(SimTime duration) {
    CommandSpec spec;
    spec.pause = duration;
    return spec;
  }
};

/// Application-side command generator; one per client.
class ClientDriver {
 public:
  virtual ~ClientDriver() = default;
  /// Next command to issue, or nullopt to stop this client.
  virtual std::optional<CommandSpec> next(Rng& rng, SimTime now) = 0;
  /// Result callback (payload may be null; status kNok = rejected).
  /// `issued_at` / `completed_at` bound the operation in simulated time
  /// (retries included), which linearizability tests rely on.
  virtual void on_result(const CommandSpec& spec, ReplyStatus status,
                         const sim::MessagePtr& payload, SimTime issued_at,
                         SimTime completed_at) {
    (void)spec;
    (void)status;
    (void)payload;
    (void)issued_at;
    (void)completed_at;
  }
};

class ClientCore {
 public:
  ClientCore(sim::Env& env, const paxos::Topology& topology,
             const SystemConfig& config, std::unique_ptr<ClientDriver> driver,
             bool surge_only = false);

  void start();
  bool handle(ProcessId from, const sim::MessagePtr& msg);

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t oracle_queries() const { return oracle_queries_; }

  // --- pure backoff arithmetic (unit-tested in isolation) ---
  /// Timeout backoff for `attempt` (1-based), jitter excluded:
  /// min(cap, base * multiplier^(attempt-1)).
  [[nodiscard]] static SimTime timeout_backoff(const SystemConfig& config,
                                               std::uint32_t attempt);
  /// Wait before re-routing after the `busy_streak`-th consecutive Busy
  /// (1-based) on one command: the server's retry-after hint, floored by an
  /// exponential client-side backoff — the hint can only lengthen the wait,
  /// never shorten it below min(cap, kBusyRetryAfterBase *
  /// multiplier^(streak-1)).
  [[nodiscard]] static SimTime busy_backoff(const SystemConfig& config,
                                            std::uint32_t busy_streak,
                                            SimTime retry_after_hint);

 private:
  struct Outstanding {
    CommandSpec spec;
    CommandPtr cmd;
    std::uint32_t attempt = 1;
    SimTime start_time = 0;
    bool multi = false;
    PartitionId target = kNoPartition;
    std::uint32_t busy_streak = 0;  // consecutive Busy replies this command
  };

  void issue_next();
  void route(bool force_oracle);
  /// Sets the outstanding attempt's deadline; pushes a timer only if none is
  /// pending or the new deadline is earlier than the pending one.
  void arm_command_timer();
  void push_deadline_timer();
  void on_deadline_timer(SimTime at);
  void on_command_timeout();
  void on_prophecy(const Prophecy& msg);
  void on_reply(const CommandReply& msg);
  void on_busy(SimTime retry_after);
  /// Spends one retry-budget token (lazy token-bucket refill); false means
  /// the budget is exhausted and the command must complete kOverloaded.
  bool spend_retry_token();
  void complete(ReplyStatus status, const sim::MessagePtr& payload);

  sim::Env& env_;
  const paxos::Topology& topology_;
  const SystemConfig& config_;
  std::unique_ptr<ClientDriver> driver_;
  // Per-command metric series and histograms, resolved on first use.
  TimeSeries* completed_series_ = nullptr;
  TimeSeries* completed_multi_series_ = nullptr;
  Histogram* latency_hist_ = nullptr;
  Histogram* latency_single_hist_ = nullptr;
  Histogram* latency_multi_hist_ = nullptr;

  multicast::McastClient sender_;

  common::FlatMap<VertexId, PartitionId> cache_;
  Epoch cache_epoch_ = 0;

  std::optional<Outstanding> outstanding_;
  /// The outstanding attempt's timeout, or kNever. One lazily re-armed
  /// timer serves every command: completing a command or waiting out a Busy
  /// backoff only clears the deadline, and a timer that fires early re-arms
  /// for it (the lazy re-arm of Varghese & Lauck's timing wheels).
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  SimTime deadline_ = kNever;
  /// Fire time of the current timer, or kNever if none is pending.
  SimTime timer_at_ = kNever;
  std::uint64_t next_cmd_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t oracle_queries_ = 0;

  /// Surge-only clients issue commands only while the world-level surge flag
  /// is raised; otherwise they idle on a short poll timer. Used by the chaos
  /// injector and benches to model open-loop load bursts.
  bool surge_only_ = false;

  /// Retry-budget token bucket (disabled when client_retry_budget == 0).
  /// Refilled lazily at one token per client_retry_token_interval.
  std::uint64_t retry_tokens_ = 0;
  SimTime last_refill_ = 0;
};

}  // namespace dynastar::core
