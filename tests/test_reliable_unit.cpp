// Unit tests for sim::ReliableLink on a MockEnv: when the retransmit timer
// is armed, in which order retransmissions, re-drives, restores and
// checkpoints list retained entries, and which ones a StableNotice prunes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "sim/reliable.h"
#include "tests/test_util.h"

namespace dynastar::sim {
namespace {

using testutil::MockEnv;

struct Payload final : Message {};

const ProcessId kPeer{7};
const ProcessId kOtherPeer{8};

/// Tokens of the ReliableMsg frames in env.sent[from..], in send order.
std::vector<std::uint64_t> sent_tokens(const MockEnv& env,
                                       std::size_t from = 0) {
  std::vector<std::uint64_t> tokens;
  for (std::size_t i = from; i < env.sent.size(); ++i)
    if (const auto* m = dynamic_cast<const ReliableMsg*>(env.sent[i].second.get()))
      tokens.push_back(m->token);
  return tokens;
}

void ack(ReliableLink& link, ProcessId from, std::uint64_t token) {
  link.handle(from, make_message<ReliableAck>(token), nullptr);
}

/// Sends `n` payloads to `to`; returns their tokens in send order.
std::vector<std::uint64_t> send_n(MockEnv& env, ReliableLink& link,
                                  ProcessId to, std::size_t n) {
  const std::size_t before = env.sent.size();
  for (std::size_t i = 0; i < n; ++i) link.send(to, make_message<Payload>());
  return sent_tokens(env, before);
}

std::vector<std::uint64_t> tokens_of(const ReliableLink::State& state) {
  std::vector<std::uint64_t> tokens;
  for (const auto& [token, e] : state.pending) tokens.push_back(token);
  return tokens;
}

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> tokens) {
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

/// Restarts a checkpoint's send counter just below 2^20. A token is
/// (epoch << 48) ^ (self << 20) ^ counter, so once the counter's bit 20
/// comes on, the restored link's tokens stop rising with send order.
void counter_near_wrap(ReliableLink::State& state) {
  state.next_token = (std::uint64_t{1} << 20) - 4;
}

void resend_req(ReliableLink& link, ProcessId from) {
  link.handle(from,
              make_message<ReliableMsg>(std::uint64_t{1} << 40,
                                        make_message<ResendReq>()),
              nullptr);
}

TEST(ReliableLinkUnit, NewSendAmongManyAckedEntriesArmsOneTimer) {
  MockEnv env;
  ReliableLink link(env);
  constexpr std::size_t kRetained = 1000;
  for (std::size_t i = 0; i < kRetained; ++i)
    link.send(kPeer, make_message<Payload>());
  EXPECT_EQ(env.timers.size(), 1u);
  for (std::uint64_t token : sent_tokens(env)) ack(link, kPeer, token);
  EXPECT_EQ(link.retained(), kRetained);  // kept until a StableNotice
  EXPECT_EQ(link.unacked(), 0u);

  // Nothing is live, so the timer fires without re-arming.
  env.advance_to(ReliableLink::kRetryInterval);
  EXPECT_TRUE(env.timers.empty());
  EXPECT_TRUE(sent_tokens(env, kRetained).empty());

  link.send(kPeer, make_message<Payload>());
  EXPECT_EQ(env.timers.size(), 1u);
  link.send(kPeer, make_message<Payload>());
  EXPECT_EQ(env.timers.size(), 1u);  // already armed
}

TEST(ReliableLinkUnit, ExhaustedEntryStopsRearming) {
  MockEnv env;
  ReliableLink link(env);
  link.send(kPeer, make_message<Payload>());
  for (SimTime t = 1; !env.timers.empty(); ++t) {
    ASSERT_LE(t, 2 * static_cast<SimTime>(ReliableLink::kMaxTries));
    env.advance_to(t * ReliableLink::kRetryInterval);
  }
  EXPECT_EQ(sent_tokens(env).size(), ReliableLink::kMaxTries);
  // Budget exhaustion keeps the entry for a later ResendReq.
  EXPECT_EQ(link.retained(), 1u);
  EXPECT_EQ(link.unacked(), 1u);
}

TEST(ReliableLinkUnit, ResendReqRearms) {
  MockEnv env;
  ReliableLink link(env);
  link.send(kPeer, make_message<Payload>());
  const std::uint64_t token = sent_tokens(env).front();
  ack(link, kPeer, token);
  env.advance_to(ReliableLink::kRetryInterval);
  ASSERT_TRUE(env.timers.empty());

  // The peer recovered from a checkpoint that predates the delivery.
  const std::size_t before = env.sent.size();
  link.handle(kPeer,
              make_message<ReliableMsg>(std::uint64_t{1} << 40,
                                        make_message<ResendReq>()),
              nullptr);
  EXPECT_EQ(sent_tokens(env, before), std::vector<std::uint64_t>{token});
  EXPECT_EQ(link.unacked(), 1u);
  EXPECT_EQ(env.timers.size(), 1u);

  // Unacked, the re-driven entry is retransmitted when the timer fires.
  const std::size_t redriven = env.sent.size();
  env.advance_to(2 * ReliableLink::kRetryInterval);
  EXPECT_EQ(sent_tokens(env, redriven), std::vector<std::uint64_t>{token});
  EXPECT_EQ(env.timers.size(), 1u);
}

TEST(ReliableLinkUnit, RestoreRearms) {
  MockEnv env;
  ReliableLink link(env);
  link.send(kPeer, make_message<Payload>());
  const std::uint64_t token = sent_tokens(env).front();
  ack(link, kPeer, token);
  const ReliableLink::State state = link.capture();

  MockEnv fresh;
  ReliableLink restored(fresh);
  restored.restore(state, {kPeer, fresh.self()});
  // The retained entry is re-sent, then a ResendReq goes to the peer.
  const std::vector<std::uint64_t> tokens = sent_tokens(fresh);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], token);
  EXPECT_EQ(restored.unacked(), 2u);
  EXPECT_EQ(fresh.timers.size(), 1u);

  // Acking both leaves nothing live: the timer fires and stays down.
  for (std::uint64_t t : tokens) ack(restored, kPeer, t);
  EXPECT_EQ(restored.retained(), 1u);  // the ResendReq entry is dropped
  fresh.advance_to(ReliableLink::kRetryInterval);
  EXPECT_TRUE(fresh.timers.empty());
}

TEST(ReliableLinkUnit, RetransmitsInTokenOrder) {
  MockEnv env;
  ReliableLink link(env);
  constexpr std::size_t kSends = 64;
  for (std::size_t i = 0; i < kSends; ++i)
    link.send(i % 3 == 0 ? kOtherPeer : kPeer, make_message<Payload>());
  const std::vector<std::uint64_t> tokens = sent_tokens(env);
  // Ack every third one; the rest stay live.
  std::vector<std::uint64_t> live;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i % 3 == 1)
      ack(link, kPeer, tokens[i]);
    else
      live.push_back(tokens[i]);
  }
  std::sort(live.begin(), live.end());

  const std::size_t before = env.sent.size();
  env.advance_to(ReliableLink::kRetryInterval);
  EXPECT_EQ(sent_tokens(env, before), live);
  const std::size_t second = env.sent.size();
  env.advance_to(2 * ReliableLink::kRetryInterval);
  EXPECT_EQ(sent_tokens(env, second), live);
}

TEST(ReliableLinkUnit, RedriveAndRestoreResendInTokenOrder) {
  // First incarnation: sends to both peers.
  MockEnv env0;
  ReliableLink first(env0);
  std::vector<std::uint64_t> to_peer = send_n(env0, first, kPeer, 5);
  const std::vector<std::uint64_t> to_other =
      send_n(env0, first, kOtherPeer, 3);
  std::vector<std::uint64_t> all = to_peer;
  all.insert(all.end(), to_other.begin(), to_other.end());
  ReliableLink::State state = first.capture();
  counter_near_wrap(state);

  // Second incarnation: re-sends the first one's table in token order, then
  // sends under its own epoch, across the counter wrap.
  MockEnv env1;
  ReliableLink second(env1);
  second.restore(state, {kPeer, kOtherPeer});
  std::vector<std::uint64_t> restored = sent_tokens(env1);
  restored.resize(all.size());  // the ResendReqs follow
  EXPECT_EQ(restored, sorted(all));
  const std::vector<std::uint64_t> fresh = send_n(env1, second, kPeer, 8);
  ASSERT_FALSE(std::is_sorted(fresh.begin(), fresh.end()));
  to_peer.insert(to_peer.end(), fresh.begin(), fresh.end());
  all.insert(all.end(), fresh.begin(), fresh.end());

  // redrive: a ResendReq re-sends everything retained for its sender, both
  // incarnations' tokens, in token order.
  std::size_t before = env1.sent.size();
  resend_req(second, kPeer);
  EXPECT_EQ(sent_tokens(env1, before), sorted(to_peer));
  before = env1.sent.size();
  resend_req(second, kOtherPeer);
  EXPECT_EQ(sent_tokens(env1, before), to_other);

  // restore: a third incarnation re-sends the second one's table (two
  // incarnations' tokens) in token order.
  MockEnv env2;
  ReliableLink third(env2);
  third.restore(second.capture(), {kPeer, kOtherPeer});
  std::vector<std::uint64_t> resent = sent_tokens(env2);
  ASSERT_EQ(resent.size(), all.size() + 2);  // + one ResendReq per peer
  resent.resize(all.size());
  EXPECT_EQ(resent, sorted(all));
}

TEST(ReliableLinkUnit, CaptureIsSortedByTokenWithoutControlEntries) {
  MockEnv env0;
  ReliableLink first(env0);
  std::vector<std::uint64_t> payloads = send_n(env0, first, kPeer, 4);
  ReliableLink::State state = first.capture();
  counter_near_wrap(state);

  MockEnv env1;
  ReliableLink link(env1);
  link.restore(state, {kPeer, kOtherPeer});  // retains two ResendReqs
  const std::vector<std::uint64_t> fresh = send_n(env1, link, kOtherPeer, 8);
  ASSERT_FALSE(std::is_sorted(fresh.begin(), fresh.end()));
  payloads.insert(payloads.end(), fresh.begin(), fresh.end());
  ack(link, kOtherPeer, fresh[2]);  // acked entries are captured too
  ASSERT_EQ(link.retained(), payloads.size() + 2);

  const ReliableLink::State captured = link.capture();
  EXPECT_EQ(tokens_of(captured), sorted(payloads));
  for (const auto& [token, e] : captured.pending) {
    EXPECT_FALSE(e.control);
    EXPECT_EQ(as<ResendReq>(as<ReliableMsg>(e.wrapped.get())->inner.get()),
              nullptr);
  }
}

TEST(ReliableLinkUnit, StableNoticePrunesLikeAFullScan) {
  // Brute-force model of the retained set: a notice from a peer drops
  // exactly the entries for that peer acked strictly before its capture
  // time, and a ResendReq un-acks every entry for the requesting peer.
  // Random sends, acks (some repeated), ResendReqs and notices must leave
  // the link retaining exactly the model's tokens.
  struct ModelEntry {
    ProcessId to{0};
    bool acked = false;
    SimTime acked_at = 0;
  };
  MockEnv env;
  ReliableLink link(env);
  std::map<std::uint64_t, ModelEntry> model;
  std::vector<std::uint64_t> tokens;  // every token ever sent
  const ProcessId peers[] = {kPeer, kOtherPeer};
  std::mt19937_64 rng(2024);
  std::uint64_t resend_token = std::uint64_t{1} << 40;
  for (int step = 0; step < 20000; ++step) {
    if (rng() % 4 == 0) env.now_ += static_cast<SimTime>(rng() % 3);
    const ProcessId peer = peers[rng() % 2];
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {
        const std::size_t before = env.sent.size();
        link.send(peer, make_message<Payload>());
        const std::vector<std::uint64_t> sent = sent_tokens(env, before);
        ASSERT_EQ(sent.size(), 1u);
        tokens.push_back(sent.front());
        model[sent.front()] = ModelEntry{peer};
        break;
      }
      case 3:
      case 4:
      case 5: {
        if (tokens.empty()) break;
        const std::uint64_t token = tokens[rng() % tokens.size()];
        auto it = model.find(token);
        ack(link, it == model.end() ? peer : it->second.to, token);
        if (it != model.end() && !it->second.acked) {
          it->second.acked = true;
          it->second.acked_at = env.now();
        }
        break;
      }
      case 6:
        link.handle(peer,
                    make_message<ReliableMsg>(++resend_token,
                                              make_message<ResendReq>()),
                    nullptr);
        for (auto& [token, e] : model)
          if (e.to == peer) e.acked = false;
        break;
      default: {
        const SimTime capture =
            env.now() - static_cast<SimTime>(rng() % 6) + 2;
        link.handle(peer, make_message<StableNotice>(capture), nullptr);
        std::erase_if(model, [&](const auto& kv) {
          const ModelEntry& e = kv.second;
          return e.to == peer && e.acked && e.acked_at < capture;
        });
        break;
      }
    }
    ASSERT_EQ(link.retained(), model.size()) << "step " << step;
  }
  std::vector<std::uint64_t> retained;
  for (const auto& [token, e] : link.capture().pending)
    retained.push_back(token);
  std::vector<std::uint64_t> expected;
  for (const auto& [token, e] : model) expected.push_back(token);
  EXPECT_EQ(retained, expected);
}

}  // namespace
}  // namespace dynastar::sim
