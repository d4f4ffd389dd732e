#include "core/client.h"

#include <algorithm>
#include <cmath>

#include "common/metric_names.h"
#include "core/server.h"  // group_of, kOracleGroup

namespace dynastar::core {

namespace {
/// How often an idle surge-only client re-checks the world surge flag.
constexpr SimTime kSurgePollInterval = milliseconds(1);
}  // namespace

ClientCore::ClientCore(sim::Env& env, const paxos::Topology& topology,
                       const SystemConfig& config,
                       std::unique_ptr<ClientDriver> driver, bool surge_only)
    : env_(env),
      topology_(topology),
      config_(config),
      driver_(std::move(driver)),
      sender_(env, topology),
      surge_only_(surge_only),
      retry_tokens_(config.client_retry_budget) {}

void ClientCore::start() { issue_next(); }

SimTime ClientCore::timeout_backoff(const SystemConfig& config,
                                    std::uint32_t attempt) {
  const double scaled =
      static_cast<double>(config.client_timeout_base) *
      std::pow(config.client_timeout_multiplier,
               static_cast<double>(attempt - 1));
  if (scaled < static_cast<double>(config.client_timeout_cap))
    return static_cast<SimTime>(scaled);
  return config.client_timeout_cap;
}

SimTime ClientCore::busy_backoff(const SystemConfig& config,
                                 std::uint32_t busy_streak,
                                 SimTime retry_after_hint) {
  // Client-side exponential floor: the server's hint reflects *its* queue,
  // but a client that keeps getting shed must still back off on its own so
  // synchronized retries cannot re-saturate a recovering server.
  const double scaled =
      static_cast<double>(kBusyRetryAfterBase) *
      std::pow(config.client_timeout_multiplier,
               static_cast<double>(busy_streak - 1));
  SimTime floor = config.client_timeout_cap;
  if (scaled < static_cast<double>(config.client_timeout_cap))
    floor = static_cast<SimTime>(scaled);
  return std::max(floor, retry_after_hint);
}

void ClientCore::issue_next() {
  // Surge-only clients only generate load while the surge flag is up; while
  // it is down they idle without consuming driver commands or RNG draws.
  if (surge_only_ && !env_.surge_active()) {
    env_.start_timer(kSurgePollInterval, [this] { issue_next(); });
    return;
  }
  auto spec = driver_->next(env_.random(), env_.now());
  if (!spec.has_value()) return;  // client done
  if (spec->objects.empty()) {
    env_.start_timer(spec->pause, [this] { issue_next(); });
    return;
  }

  std::vector<ObjectId> objects;
  std::vector<VertexId> vertices;
  objects.reserve(spec->objects.size());
  vertices.reserve(spec->objects.size());
  for (const auto& [obj, vertex] : spec->objects) {
    objects.push_back(obj);
    vertices.push_back(vertex);
  }
  const std::uint64_t cmd_id = (env_.self().value() << 32) | ++next_cmd_;
  auto cmd = sim::make_message<Command>(
      cmd_id, env_.self(), spec->type, std::move(objects), std::move(vertices),
      spec->payload, spec->read_only);
  outstanding_ = Outstanding{std::move(*spec), std::move(cmd), 1, env_.now(),
                             false};
  env_.trace(TracePoint::kClientIssue, cmd_id, 1,
             static_cast<std::uint64_t>(outstanding_->cmd->type));
  route(/*force_oracle=*/false);
}

void ClientCore::route(bool force_oracle) {
  Outstanding& out = *outstanding_;
  const Command& cmd = *out.cmd;

  bool use_oracle = force_oracle || cmd.type != CommandType::kAccess;
  std::vector<PartitionId> owners;
  if (!use_oracle) {
    owners.reserve(cmd.vertices.size());
    for (VertexId v : cmd.vertices) {
      auto it = cache_.find(v);
      if (it == cache_.end()) {
        use_oracle = true;
        break;
      }
      owners.push_back(it->second);
    }
  }

  if (use_oracle) {
    ++oracle_queries_;
    env_.trace(TracePoint::kClientRoute, cmd.cmd_id, out.attempt,
               /*via oracle=*/1);
    sender_.amcast({kOracleGroup}, sim::make_message<OracleRequest>(
                                       out.cmd, out.attempt));
    arm_command_timer();
    return;
  }

  // The mode seam: the cache-hit path computes the same addressing as the
  // oracle would (STAR pins the master; the partitioned modes address the
  // distinct owners).
  Route r = route_command(config_.mode, owners);
  out.multi = r.multi;
  out.target = r.target;

  env_.trace(TracePoint::kClientRoute, cmd.cmd_id, out.attempt,
             /*via oracle=*/0);
  std::vector<GroupId> groups;
  groups.reserve(r.dests.size());
  for (PartitionId p : r.dests) groups.push_back(group_of(p));
  sender_.amcast(std::move(groups),
                 sim::make_message<ExecCommand>(out.cmd, std::move(r.dests),
                                                std::move(owners), r.target,
                                                cache_epoch_, out.attempt));
  arm_command_timer();
}

void ClientCore::arm_command_timer() {
  if (config_.client_timeout_base <= 0) return;  // timeouts disabled
  // Exponential backoff with jitter, capped:
  // min(cap, base * multiplier^(attempt-1)) + U[0, jitter].
  SimTime delay = timeout_backoff(config_, outstanding_->attempt);
  if (config_.client_timeout_jitter > 0)
    delay += static_cast<SimTime>(env_.random().uniform(
        0, static_cast<std::uint64_t>(config_.client_timeout_jitter)));
  deadline_ = env_.now() + delay;
  if (deadline_ < timer_at_) push_deadline_timer();
}

void ClientCore::push_deadline_timer() {
  timer_at_ = deadline_;
  env_.start_timer(deadline_ - env_.now(),
                   [this, at = timer_at_] { on_deadline_timer(at); });
}

void ClientCore::on_deadline_timer(SimTime at) {
  // A timer due at another time than the current one was superseded by an
  // earlier deadline. Of two due at the same time, the first to run acts
  // and resets timer_at_, so the second returns here.
  if (at != timer_at_) return;
  timer_at_ = kNever;
  if (deadline_ == kNever) return;  // completed or backing off
  if (deadline_ > env_.now()) {
    push_deadline_timer();  // the deadline moved later since this push
    return;
  }
  deadline_ = kNever;
  on_command_timeout();
}

void ClientCore::on_command_timeout() {
  Outstanding& out = *outstanding_;
  env_.metrics().series(metric::kClientTimeouts).add(env_.now(), 1.0);
  if (config_.client_max_attempts != 0 &&
      out.attempt >= config_.client_max_attempts) {
    complete(ReplyStatus::kTimeout, nullptr);
    return;
  }
  env_.metrics().series(metric::kClientRetransmits).add(env_.now(), 1.0);
  env_.trace(TracePoint::kClientRetry, out.cmd->cmd_id, out.attempt,
             /*timeout=*/0);
  // First re-drive any multicast send a destination group never received —
  // a FIFO-ordered group cannot admit this client's *new* sends behind a
  // lost one — then re-resolve through the oracle under a fresh attempt.
  sender_.retransmit_unacked();
  ++out.attempt;
  cache_.clear();
  route(/*force_oracle=*/true);
}

bool ClientCore::handle(ProcessId /*from*/, const sim::MessagePtr& msg) {
  if (sender_.handle(msg)) return true;
  switch (msg->kind()) {
    case sim::Kind::kProphecy:
      on_prophecy(*sim::as<Prophecy>(msg.get()));
      return true;
    case sim::Kind::kCommandReply:
      on_reply(*sim::as<CommandReply>(msg.get()));
      return true;
    default:
      return false;
  }
}

void ClientCore::on_prophecy(const Prophecy& msg) {
  if (!outstanding_.has_value() || msg.cmd_id != outstanding_->cmd->cmd_id ||
      msg.attempt != outstanding_->attempt) {
    return;  // stale or duplicate (the other oracle replica's copy)
  }
  if (msg.epoch > cache_epoch_) {
    cache_.clear();
    cache_epoch_ = msg.epoch;
  }
  if (msg.epoch == cache_epoch_) {
    for (const auto& [vertex, partition] : msg.locations) {
      if (config_.client_cache_capacity != 0 &&
          cache_.size() >= config_.client_cache_capacity &&
          !cache_.contains(vertex)) {
        // Evict an arbitrary resident entry (hash order ~ random).
        cache_.erase(cache_.begin());
      }
      cache_[vertex] = partition;
    }
  }
  if (msg.status == ReplyStatus::kNok) {
    complete(ReplyStatus::kNok, nullptr);
    return;
  }
  if (msg.status == ReplyStatus::kBusy) {
    // A shedding oracle still answers from its location map (degraded
    // service), so the cache refresh above already happened: the retry can
    // often go partition-direct and skip the hot oracle entirely.
    on_busy(msg.retry_after);
    return;
  }
  outstanding_->target = msg.target;
  outstanding_->multi = msg.locations.size() > 1 &&
                        [&] {
                          for (const auto& [v, p] : msg.locations)
                            if (p != msg.locations.front().second) return true;
                          return false;
                        }();
  // kOk: now wait for the target partition's CommandReply.
}

void ClientCore::on_reply(const CommandReply& msg) {
  if (!outstanding_.has_value() || msg.cmd_id != outstanding_->cmd->cmd_id ||
      msg.attempt != outstanding_->attempt) {
    return;  // duplicate replica reply or reply for a superseded attempt
  }
  if (msg.status == ReplyStatus::kRetry) {
    // Stale addressing: flush the cache and go through the oracle (§4.3).
    env_.metrics().series(metric::kClientRetries).add(env_.now(), 1.0);
    env_.trace(TracePoint::kClientRetry, msg.cmd_id, msg.attempt,
               /*kRetry reply=*/1);
    cache_.clear();
    ++outstanding_->attempt;
    route(/*force_oracle=*/true);
    return;
  }
  if (msg.status == ReplyStatus::kBusy) {
    on_busy(msg.retry_after);
    return;
  }
  complete(msg.status, msg.payload);
}

bool ClientCore::spend_retry_token() {
  if (config_.client_retry_budget == 0) return true;  // budget disabled
  const SimTime interval = config_.client_retry_token_interval;
  if (interval > 0) {
    const std::uint64_t earned =
        static_cast<std::uint64_t>(env_.now() - last_refill_) /
        static_cast<std::uint64_t>(interval);
    if (earned > 0) {
      retry_tokens_ = std::min<std::uint64_t>(config_.client_retry_budget,
                                              retry_tokens_ + earned);
      last_refill_ += static_cast<SimTime>(earned) * interval;
    }
  }
  if (retry_tokens_ == 0) return false;
  --retry_tokens_;
  return true;
}

void ClientCore::on_busy(SimTime retry_after) {
  Outstanding& out = *outstanding_;
  ++out.busy_streak;
  env_.metrics().series(metric::kClientShed).add(env_.now(), 1.0);
  env_.trace(TracePoint::kClientRetry, out.cmd->cmd_id, out.attempt,
             /*kBusy reply=*/2);
  if (!spend_retry_token()) {
    // Budget exhausted: fail fast instead of adding retry pressure. The
    // command was shed before execution, so kOverloaded is a clean no-op.
    env_.metrics().add_counter(metric::kClientRetriesExhausted);
    complete(ReplyStatus::kOverloaded, nullptr);
    return;
  }
  // No timeout while we wait out the backoff; bump the attempt immediately
  // so straggler replies of the old attempt are ignored.
  deadline_ = kNever;
  ++out.attempt;
  const SimTime delay = busy_backoff(config_, out.busy_streak, retry_after);
  const std::uint64_t cmd_id = out.cmd->cmd_id;
  const std::uint32_t attempt = out.attempt;
  // No cache clear: Busy means overload, not stale addressing. The retry
  // re-routes normally and may hit the partitions directly via the cache.
  env_.start_timer(delay, [this, cmd_id, attempt] {
    if (!outstanding_.has_value() || outstanding_->cmd->cmd_id != cmd_id ||
        outstanding_->attempt != attempt) {
      return;
    }
    route(/*force_oracle=*/false);
  });
}

void ClientCore::complete(ReplyStatus status, const sim::MessagePtr& payload) {
  Outstanding out = std::move(*outstanding_);
  outstanding_.reset();
  deadline_ = kNever;
  ++completed_;
  // Under DS-SMR a successful multi-partition command permanently moved
  // omega to the target; the client saw the move, so it updates its cache.
  if (config_.mode == ExecutionMode::kDSSMR && status == ReplyStatus::kOk &&
      out.multi && out.target != kNoPartition) {
    for (const auto& [obj, vertex] : out.spec.objects)
      cache_[vertex] = out.target;
  }
  // Deleted vertices must not be addressed from the cache again.
  if (out.cmd->type == CommandType::kDelete && status == ReplyStatus::kOk) {
    for (const auto& [obj, vertex] : out.spec.objects) cache_.erase(vertex);
  }
  env_.trace(TracePoint::kClientComplete, out.cmd->cmd_id, out.attempt,
             static_cast<std::uint64_t>(status));
  const SimTime latency = env_.now() - out.start_time;
  const auto series = [this](TimeSeries*& handle, const char* name) {
    if (handle == nullptr) handle = &env_.metrics().series(name);
    return handle;
  };
  const auto histogram = [this](Histogram*& handle, const char* name) {
    if (handle == nullptr) handle = &env_.metrics().histogram(name);
    return handle;
  };
  series(completed_series_, metric::kCompleted)->add(env_.now(), 1.0);
  if (out.multi)
    series(completed_multi_series_, metric::kCompletedMulti)
        ->add(env_.now(), 1.0);
  histogram(latency_hist_, metric::kLatency)->record(latency);
  if (out.multi)
    histogram(latency_multi_hist_, metric::kLatencyMulti)->record(latency);
  else
    histogram(latency_single_hist_, metric::kLatencySingle)->record(latency);
  driver_->on_result(out.spec, status, payload, out.start_time, env_.now());
  issue_next();
}

}  // namespace dynastar::core
