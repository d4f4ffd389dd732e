// Unit tests for the Network link-capacity model: LinkKey hashing, explicit
// config setters, link-profile resolution, FIFO bandwidth serialization,
// queue-cap tail drops, site striping, and labeled per-link byte accounting.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/metric_names.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace dynastar::sim {
namespace {

// --- LinkKey / LinkKeyHash ---

TEST(LinkKey, HashIsOrderSensitive) {
  // (a, b) and (b, a) are different directed links; a symmetric hash would
  // put them in the same bucket systematically and, worse, a symmetric
  // equality would merge them. Equality must distinguish them.
  const Network::LinkKey ab{1, 2};
  const Network::LinkKey ba{2, 1};
  EXPECT_FALSE(ab == ba);
  // The hash should *usually* differ too (quality, not correctness): check
  // over a spread of pairs that reversal changes the hash.
  Network::LinkKeyHash hash;
  int differing = 0;
  for (std::uint64_t a = 1; a <= 64; ++a) {
    const Network::LinkKey fwd{a, a + 1000};
    const Network::LinkKey rev{a + 1000, a};
    if (hash(fwd) != hash(rev)) ++differing;
  }
  EXPECT_GE(differing, 60) << "reversed links collide almost always";
}

TEST(LinkKey, HighBitsDoNotAliasLowLinks) {
  // Regression shape: a packed 32+32 key made {2^32+1 -> 0} equal {1 -> 0}.
  const Network::LinkKey high{(1ull << 32) + 1, 0};
  const Network::LinkKey low{1, 0};
  EXPECT_FALSE(high == low);
  std::unordered_set<Network::LinkKey, Network::LinkKeyHash> set;
  set.insert(high);
  EXPECT_FALSE(set.contains(low));
}

TEST(LinkKey, HashSpreadsOverDenseIds) {
  // Process ids are dense small integers; the hash must not degenerate.
  Network::LinkKeyHash hash;
  std::unordered_set<std::size_t> buckets;
  for (std::uint64_t from = 0; from < 32; ++from)
    for (std::uint64_t to = 0; to < 32; ++to)
      buckets.insert(hash(Network::LinkKey{from, to}) % 1024);
  EXPECT_GT(buckets.size(), 512u) << "dense ids collapse into few buckets";
}

// --- fixtures ---

class EchoProcess final : public Process {
 public:
  using Process::Process;
  void on_message(ProcessId, const MessagePtr&) override {
    ++received;
    last_arrival = world().sim().now();
    arrivals.push_back(last_arrival);
  }
  int received = 0;
  SimTime last_arrival = 0;
  std::vector<SimTime> arrivals;
};

struct Payload final : Message {
  explicit Payload(std::size_t bytes) : bytes(bytes) {}
  std::size_t size_bytes() const override { return bytes; }
  std::size_t bytes;
};

class BurstSender final : public Process {
 public:
  BurstSender(ProcessId id, World& world, ProcessId to, int count,
              std::size_t bytes)
      : Process(id, world), to_(to), count_(count), bytes_(bytes) {}
  void on_start() override {
    for (int i = 0; i < count_; ++i)
      send_message(to_, make_message<Payload>(bytes_));
  }
  void on_message(ProcessId, const MessagePtr&) override {}

 private:
  ProcessId to_;
  int count_;
  std::size_t bytes_;
};

NetworkConfig quiet_config() {
  NetworkConfig net;
  net.base_latency = 0;
  net.jitter = 0;
  net.per_kib_cost = 0;
  return net;
}

// --- explicit setters (the old mutable config() is gone) ---

TEST(Network, SettersRewriteGlobalKnobs) {
  NetworkConfig net = quiet_config();
  World world(net, 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 1, 100);
  world.network().set_drop_probability(1.0);
  world.run_until(milliseconds(1));
  EXPECT_EQ(echo.received, 0);
  EXPECT_EQ(world.network().config().drop_probability, 1.0);
  world.network().set_drop_probability(0.0);
  world.network().set_base_latency(milliseconds(2));
  world.network().send(sender.id(), echo.id(), make_message<Payload>(8));
  world.run_until(milliseconds(2));
  EXPECT_EQ(echo.received, 0) << "new base latency not applied";
  world.run_until(milliseconds(4));
  EXPECT_EQ(echo.received, 1);
}

// --- bandwidth / FIFO serialization ---

TEST(Network, BandwidthDelaysLargeMessages) {
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  LinkProfile profile;
  profile.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s -> 1 KB per ms
  world.network().set_link_profile(sender.id(), echo.id(), profile);
  world.network().send(sender.id(), echo.id(), make_message<Payload>(10'000));
  world.run_until(milliseconds(9));
  EXPECT_EQ(echo.received, 0) << "10 KB at 1 MB/s should take 10 ms";
  world.run_until(milliseconds(11));
  EXPECT_EQ(echo.received, 1);
}

TEST(Network, FifoSerializationDelaysFollowers) {
  // A large message in front of a small one delays it: the small message's
  // transmission cannot start until the pipe is clear.
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  LinkProfile profile;
  profile.bandwidth_bytes_per_sec = 1'000'000;
  world.network().set_link_profile(sender.id(), echo.id(), profile);
  world.network().send(sender.id(), echo.id(), make_message<Payload>(10'000));
  world.network().send(sender.id(), echo.id(), make_message<Payload>(100));
  world.run_until(seconds(1));
  ASSERT_EQ(echo.received, 2);
  // First arrival ~10 ms, second ~10.1 ms — strictly after the first.
  EXPECT_GE(echo.arrivals[0], milliseconds(10));
  EXPECT_GT(echo.arrivals[1], echo.arrivals[0]);
  // Without the pipe ahead of it, 100 B would arrive in ~0.1 ms.
  EXPECT_GE(echo.arrivals[1], milliseconds(10));
}

TEST(Network, BandwidthScaleSlowsEveryProfiledLink) {
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  LinkProfile profile;
  profile.bandwidth_bytes_per_sec = 1'000'000;
  world.network().set_link_profile(sender.id(), echo.id(), profile);
  world.network().set_bandwidth_scale(0.1);  // 10x collapse
  world.network().send(sender.id(), echo.id(), make_message<Payload>(1'000));
  world.run_until(milliseconds(9));
  EXPECT_EQ(echo.received, 0) << "1 KB at 100 KB/s should take 10 ms";
  world.run_until(milliseconds(11));
  EXPECT_EQ(echo.received, 1);
  world.network().set_bandwidth_scale(1.0);
}

TEST(Network, QueueCapTailDropsAndDrains) {
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  LinkProfile profile;
  profile.bandwidth_bytes_per_sec = 1'000'000;
  profile.queue_bytes = 2'500;  // room for two 1 KB messages + change
  world.network().set_link_profile(sender.id(), echo.id(), profile);
  for (int i = 0; i < 5; ++i)
    world.network().send(sender.id(), echo.id(), make_message<Payload>(1'000));
  EXPECT_EQ(world.network().messages_queue_dropped(), 3u);
  EXPECT_EQ(world.network().messages_dropped(), 3u);
  world.run_until(seconds(1));
  EXPECT_EQ(echo.received, 2);
  // The queue drains as transmissions finish: later sends are accepted.
  world.network().send(sender.id(), echo.id(), make_message<Payload>(1'000));
  world.run_until(seconds(2));
  EXPECT_EQ(echo.received, 3);
  EXPECT_EQ(world.network().messages_queue_dropped(), 3u);
}

TEST(Network, NullProfileKeepsLegacyTiming) {
  // Two identically-seeded worlds, one with an explicitly installed null
  // profile: delivery instants must match exactly (the null profile is the
  // documented bit-compatibility contract).
  NetworkConfig net;  // defaults: latency + jitter + per-KiB cost
  World plain(net, 7);
  auto& echo1 = plain.spawn<EchoProcess>();
  plain.spawn<BurstSender>(echo1.id(), 3, 4'000);
  plain.run_until(seconds(1));

  World profiled(net, 7);
  auto& echo2 = profiled.spawn<EchoProcess>();
  auto& sender2 = profiled.spawn<BurstSender>(echo2.id(), 3, 4'000);
  profiled.network().set_link_profile(sender2.id(), echo2.id(), LinkProfile{});
  profiled.run_until(seconds(1));

  ASSERT_EQ(echo1.received, echo2.received);
  EXPECT_EQ(echo1.arrivals, echo2.arrivals);
}

// --- profile resolution: override > site pair > default ---

TEST(Network, ProfileResolutionPriority) {
  World world(quiet_config(), 1);
  auto& a = world.spawn<EchoProcess>();
  auto& b = world.spawn<EchoProcess>();
  Network& net = world.network();

  LinkProfile def;
  def.bandwidth_bytes_per_sec = 111;
  net.set_default_profile(def);
  EXPECT_EQ(net.resolve_profile(a.id(), b.id()).bandwidth_bytes_per_sec, 111u);

  LinkProfile site;
  site.bandwidth_bytes_per_sec = 222;
  net.set_site(a.id(), 0);
  net.set_site(b.id(), 1);
  net.set_site_profile(0, 1, site);
  EXPECT_EQ(net.resolve_profile(a.id(), b.id()).bandwidth_bytes_per_sec, 222u);
  // The reverse direction has no site profile: falls back to the default.
  EXPECT_EQ(net.resolve_profile(b.id(), a.id()).bandwidth_bytes_per_sec, 111u);

  LinkProfile link;
  link.bandwidth_bytes_per_sec = 333;
  net.set_link_profile(a.id(), b.id(), link);
  EXPECT_EQ(net.resolve_profile(a.id(), b.id()).bandwidth_bytes_per_sec, 333u);
  EXPECT_TRUE(net.link_profile_override(a.id(), b.id()).has_value());

  net.clear_link_profile(a.id(), b.id());
  EXPECT_EQ(net.resolve_profile(a.id(), b.id()).bandwidth_bytes_per_sec, 222u);
  EXPECT_FALSE(net.link_profile_override(a.id(), b.id()).has_value());
}

// --- block/unblock edge cases ---

TEST(Network, UnblockUnblockedLinkIsNoop) {
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  world.network().unblock_link(sender.id(), echo.id());  // never blocked
  world.network().send(sender.id(), echo.id(), make_message<Payload>(8));
  world.run_until(milliseconds(1));
  EXPECT_EQ(echo.received, 1);
}

TEST(Network, DoubleBlockSingleUnblockOpensLink) {
  // Blocking is a set, not a counter: block twice, unblock once -> open.
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  world.network().block_link(sender.id(), echo.id());
  world.network().block_link(sender.id(), echo.id());
  world.network().unblock_link(sender.id(), echo.id());
  world.network().send(sender.id(), echo.id(), make_message<Payload>(8));
  world.run_until(milliseconds(1));
  EXPECT_EQ(echo.received, 1);
}

TEST(Network, UnblockAllClearsEveryDirection) {
  World world(quiet_config(), 1);
  auto& a = world.spawn<EchoProcess>();
  auto& b = world.spawn<EchoProcess>();
  world.network().block_link(a.id(), b.id());
  world.network().block_link(b.id(), a.id());
  world.network().unblock_all();
  world.network().send(a.id(), b.id(), make_message<Payload>(8));
  world.network().send(b.id(), a.id(), make_message<Payload>(8));
  world.run_until(milliseconds(1));
  EXPECT_EQ(a.received, 1);
  EXPECT_EQ(b.received, 1);
}

TEST(Network, BlockedSendStillCountsBytes) {
  // bytes_sent/messages_sent count attempts (the sender did the work);
  // blocked and dropped messages are visible in messages_dropped.
  World world(quiet_config(), 1);
  auto& echo = world.spawn<EchoProcess>();
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  world.network().block_link(sender.id(), echo.id());
  world.network().send(sender.id(), echo.id(), make_message<Payload>(500));
  EXPECT_EQ(world.network().messages_sent(), 1u);
  EXPECT_EQ(world.network().bytes_sent(), 500u);
  EXPECT_EQ(world.network().messages_dropped(), 1u);
  world.network().unblock_all();
}

// --- per-KiB cost vs bytes accounting ---

TEST(Network, PerKibCostScalesWithSizeAndBytesMatch) {
  NetworkConfig net = quiet_config();
  net.per_kib_cost = microseconds(10);
  World world(net, 1);
  auto& echo = world.spawn<EchoProcess>();
  // The timing assertions below are about *network* latency alone, so the
  // receiver's CPU queue must not add its own service delay.
  echo.set_message_service_time(0);
  auto& sender = world.spawn<BurstSender>(echo.id(), 0, 0);
  world.network().send(sender.id(), echo.id(), make_message<Payload>(4'096));
  world.run_until(microseconds(39));
  EXPECT_EQ(echo.received, 0) << "4 KiB at 10 us/KiB should take 40 us";
  world.run_until(microseconds(41));
  EXPECT_EQ(echo.received, 1);
  EXPECT_EQ(world.network().bytes_sent(), 4'096u);
  // Partial KiB rounds up: 100 B costs one full KiB tick.
  world.network().send(sender.id(), echo.id(), make_message<Payload>(100));
  world.run_until(microseconds(50));
  EXPECT_EQ(echo.received, 1);
  world.run_until(microseconds(52));
  EXPECT_EQ(echo.received, 2);
  EXPECT_EQ(world.network().bytes_sent(), 4'196u);
}

// --- labeled per-link metrics ---

TEST(Network, LabeledBytesPerSitePair) {
  World world(quiet_config(), 1);
  auto& a = world.spawn<EchoProcess>();
  auto& b = world.spawn<EchoProcess>();
  Network& net = world.network();
  net.set_site(a.id(), 0);
  net.set_site(b.id(), 2);
  LinkProfile wan;
  wan.bandwidth_bytes_per_sec = 1'000'000'000;
  net.set_site_profile(0, 2, wan);
  net.send(a.id(), b.id(), make_message<Payload>(1'000));
  net.send(a.id(), b.id(), make_message<Payload>(500));
  world.run_until(milliseconds(1));
  const auto* series =
      world.metrics().find_series(metric::kNetworkBytesSent, {{"link", "s0->s2"}});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->total(), 1'500.0);
}

TEST(Network, LabeledBytesPerLinkOverride) {
  World world(quiet_config(), 1);
  auto& a = world.spawn<EchoProcess>();
  auto& b = world.spawn<EchoProcess>();
  LinkProfile slow;
  slow.bandwidth_bytes_per_sec = 1'000'000'000;
  world.network().set_link_profile(a.id(), b.id(), slow);
  world.network().send(a.id(), b.id(), make_message<Payload>(256));
  world.run_until(milliseconds(1));
  const auto* series =
      world.metrics().find_series(metric::kNetworkBytesSent, {{"link", "p0->p1"}});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->total(), 256.0);
}

}  // namespace
}  // namespace dynastar::sim
