// Unit tests for ClientCore's command deadline on a MockEnv: one lazily
// re-armed timer serves every command, and a real timeout still fires at
// exactly arm time + timeout_backoff(attempt) + the jitter draw.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "common/metric_names.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/protocol.h"
#include "multicast/messages.h"
#include "paxos/topology.h"
#include "test_util.h"

namespace dynastar {
namespace {

using core::ReplyStatus;
using testutil::MockEnv;

/// Issues single-key access commands forever, drawing nothing from the RNG.
class EndlessDriver final : public core::ClientDriver {
 public:
  std::optional<core::CommandSpec> next(Rng& /*rng*/,
                                        SimTime /*now*/) override {
    core::CommandSpec spec;
    spec.objects.emplace_back(ObjectId{7}, core::VertexId{7});
    return spec;
  }
};

/// The (command, attempt) a routed send carries.
struct Routed {
  std::uint64_t cmd_id = 0;
  std::uint32_t attempt = 0;
};

class ClientTimer : public ::testing::Test {
 protected:
  ClientTimer() {
    topology_.add_group({GroupId{0}, {ProcessId{1}}, {ProcessId{11}}});
    topology_.add_group({GroupId{1}, {ProcessId{2}}, {ProcessId{12}}});
  }

  /// Issues the first command at time 0 (after any config_ edits).
  void SetUp() override { client_.start(); }

  /// The next attempt's timeout. The MockEnv RNG (seed 1) is drawn only by
  /// arm_command_timer's jitter, so a same-seeded Rng replays the draws.
  SimTime next_timeout(std::uint32_t attempt) {
    SimTime timeout = core::ClientCore::timeout_backoff(config_, attempt);
    if (config_.client_timeout_jitter > 0)
      timeout += static_cast<SimTime>(jitter_.uniform(
          0, static_cast<std::uint64_t>(config_.client_timeout_jitter)));
    return timeout;
  }

  /// Completes `n` commands, one per millisecond.
  void complete_fast(int n, std::size_t max_queued) {
    for (int i = 0; i < n; ++i) {
      env_.advance_to(env_.now() + milliseconds(1));
      reply(ReplyStatus::kOk);
      ASSERT_LE(env_.timers.size(), max_queued) << "after command " << i;
    }
  }

  /// The last routed (command, attempt), through the oracle or direct.
  [[nodiscard]] Routed last_routed() const {
    for (auto it = env_.sent.rbegin(); it != env_.sent.rend(); ++it) {
      const auto* send = dynamic_cast<const multicast::McastSend*>(
          it->second.get());
      if (send == nullptr) continue;
      const sim::Message* payload = send->data->payload.get();
      if (const auto* req = dynamic_cast<const core::OracleRequest*>(payload))
        return {req->cmd->cmd_id, req->attempt};
      if (const auto* exec = dynamic_cast<const core::ExecCommand*>(payload))
        return {exec->cmd->cmd_id, exec->attempt};
    }
    return {};
  }

  void reply(ReplyStatus status, SimTime retry_after = 0) {
    const Routed r = last_routed();
    client_.handle(ProcessId{2},
                   sim::make_message<core::CommandReply>(
                       r.cmd_id, r.attempt, status, nullptr, retry_after));
  }

  double timeouts() {
    return env_.metrics().series(metric::kClientTimeouts).total();
  }

  core::SystemConfig config_;
  paxos::Topology topology_;
  MockEnv env_;
  Rng jitter_{1};
  core::ClientCore client_{env_, topology_, config_,
                           std::make_unique<EndlessDriver>()};
};

/// Without jitter every deadline is later than the last, so the one timer
/// only ever re-arms: one firing per timeout period, not one per command.
class ClientTimerNoJitter : public ClientTimer {
 protected:
  void SetUp() override {
    config_.client_timeout_jitter = 0;
    ClientTimer::SetUp();
  }
};

TEST_F(ClientTimerNoJitter, FastCompletionsKeepAtMostOneTimerPending) {
  complete_fast(2000, 1);
  EXPECT_EQ(client_.completed(), 2000u);
  EXPECT_EQ(timeouts(), 0.0);
  // Pushed at 0 ms; each firing re-arms for the latest command's deadline,
  // 499 ms on: at 500, 999, 1498 and 1997 ms.
  EXPECT_EQ(env_.timers_started, 5u);
}

TEST_F(ClientTimerNoJitter, TwoTimersDueOnOneTickActOnce) {
  // Command 1 times out at 500 ms; its attempt 2 pushes a timer for 1500.
  env_.advance_to(milliseconds(500));
  ASSERT_EQ(last_routed().attempt, 2u);
  // Command 2 (at 600) pushes an earlier timer for 1100; command 3 (at
  // 1000) is due at 1500, so the 1100 timer re-arms for it. Two timers are
  // now due at 1500: the superseded one and the current one.
  env_.advance_to(milliseconds(600));
  reply(ReplyStatus::kOk);
  env_.advance_to(milliseconds(1000));
  reply(ReplyStatus::kOk);
  const Routed third = last_routed();
  env_.advance_to(milliseconds(1100));
  ASSERT_EQ(env_.timers.size(), 2u);
  EXPECT_EQ(env_.timers[0].first, milliseconds(1500));
  EXPECT_EQ(env_.timers[1].first, milliseconds(1500));
  // The first to run times command 3 out; the second does nothing.
  env_.advance_to(milliseconds(1500));
  EXPECT_EQ(timeouts(), 2.0);
  EXPECT_EQ(last_routed().cmd_id, third.cmd_id);
  EXPECT_EQ(last_routed().attempt, 2u);
  ASSERT_EQ(env_.timers.size(), 1u);
  EXPECT_EQ(env_.timers.front().first, milliseconds(2500));
}

TEST_F(ClientTimer, FastCompletionsStartFewTimers) {
  // With jitter a new deadline can fall before the pending timer; it gets a
  // timer of its own, and the superseded one fires as a no-op.
  complete_fast(2000, 4);
  EXPECT_EQ(client_.completed(), 2000u);
  EXPECT_EQ(timeouts(), 0.0);
  EXPECT_LE(env_.timers_started, 2000u / 50);
}

TEST_F(ClientTimer, UnansweredCommandTimesOutAtItsDeadline) {
  const SimTime deadline = next_timeout(1);
  const Routed first = last_routed();
  env_.advance_to(deadline - 1);
  EXPECT_EQ(timeouts(), 0.0);
  EXPECT_EQ(last_routed().attempt, 1u);
  env_.advance_to(deadline);
  EXPECT_EQ(timeouts(), 1.0);
  EXPECT_EQ(last_routed().cmd_id, first.cmd_id);
  EXPECT_EQ(last_routed().attempt, 2u);
}

TEST_F(ClientTimer, ShorterDeadlineUnderALongerPendingOneFiresFirst) {
  // Command 1 times out; its attempt 2 arms a ~1 s deadline.
  const SimTime first_deadline = next_timeout(1);
  env_.advance_to(first_deadline);
  ASSERT_EQ(last_routed().attempt, 2u);
  const SimTime stale_at = first_deadline + next_timeout(2);
  ASSERT_EQ(env_.timers.size(), 1u);
  // Attempt 2 completes; command 2's ~0.5 s deadline is earlier than the
  // pending timer, so a second timer is pushed under it.
  env_.advance_to(first_deadline + milliseconds(1));
  reply(ReplyStatus::kOk);
  const Routed second = last_routed();
  ASSERT_EQ(second.attempt, 1u);
  const SimTime deadline = env_.now() + next_timeout(1);
  ASSERT_LT(deadline, stale_at);
  EXPECT_EQ(env_.timers.size(), 2u);
  env_.advance_to(deadline - 1);
  EXPECT_EQ(timeouts(), 1.0);
  env_.advance_to(deadline);
  EXPECT_EQ(timeouts(), 2.0);
  EXPECT_EQ(last_routed().cmd_id, second.cmd_id);
  EXPECT_EQ(last_routed().attempt, 2u);
  // The superseded timer fires and does nothing.
  const std::size_t sent = env_.sent.size();
  env_.advance_to(stale_at);
  EXPECT_EQ(env_.sent.size(), sent);
  EXPECT_EQ(timeouts(), 2.0);
}

TEST_F(ClientTimer, BusyBackoffSuppressesTheTimeout) {
  const SimTime deadline = next_timeout(1);
  env_.advance_to(milliseconds(1));
  const SimTime hint = seconds(2);
  reply(ReplyStatus::kBusy, hint);
  const std::size_t sent = env_.sent.size();
  env_.advance_to(deadline);
  env_.advance_to(milliseconds(1) + hint - 1);
  EXPECT_EQ(timeouts(), 0.0);
  EXPECT_EQ(env_.sent.size(), sent);
  // The backoff re-routes attempt 2, which arms its own deadline.
  env_.advance_to(milliseconds(1) + hint);
  ASSERT_EQ(last_routed().attempt, 2u);
  const SimTime retry_deadline = env_.now() + next_timeout(2);
  env_.advance_to(retry_deadline - 1);
  EXPECT_EQ(timeouts(), 0.0);
  env_.advance_to(retry_deadline);
  EXPECT_EQ(timeouts(), 1.0);
  EXPECT_EQ(last_routed().attempt, 3u);
}

TEST_F(ClientTimer, RetryReRouteMovesTheDeadline) {
  const SimTime first_deadline = next_timeout(1);
  env_.advance_to(milliseconds(100));
  reply(ReplyStatus::kRetry);
  ASSERT_EQ(last_routed().attempt, 2u);
  const SimTime deadline = env_.now() + next_timeout(2);
  // The pending timer fires at the old deadline and only re-arms.
  env_.advance_to(first_deadline);
  EXPECT_EQ(timeouts(), 0.0);
  EXPECT_EQ(last_routed().attempt, 2u);
  ASSERT_EQ(env_.timers.size(), 1u);
  EXPECT_EQ(env_.timers.front().first, deadline);
  env_.advance_to(deadline - 1);
  EXPECT_EQ(timeouts(), 0.0);
  env_.advance_to(deadline);
  EXPECT_EQ(timeouts(), 1.0);
  EXPECT_EQ(last_routed().attempt, 3u);
}

}  // namespace
}  // namespace dynastar
