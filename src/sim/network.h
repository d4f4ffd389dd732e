// Simulated point-to-point network with fault injection.
//
// Models per-message latency (base + seeded jitter), message loss and
// duplication, per-process crash state, and — when a link carries a
// LinkProfile — finite bandwidth with FIFO transmission queues, so a large
// message occupies the pipe and delays everything sent behind it.
// Partition-style faults are expressed with explicit link blocking so tests
// can cut the network along any line.
//
// Link profiles resolve in priority order:
//   explicit per-link override > site-pair profile > default profile.
// Sites model datacenters: assign each process a site and give the site
// pairs WAN-grade profiles (thin, far) while intra-site traffic stays fat
// and near. A default-constructed LinkProfile (bandwidth 0 = infinite, no
// extra propagation, unbounded queue) reproduces the pure latency+jitter
// model bit-for-bit, so existing scenarios are unaffected until a profile
// is installed.
#pragma once

#include <cstdio>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/ids.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace dynastar::sim {

struct NetworkConfig {
  /// One-way delivery latency before jitter.
  SimTime base_latency = microseconds(100);
  /// Uniform jitter added on top of base latency: U[0, jitter].
  SimTime jitter = microseconds(20);
  /// Probability an individual message is silently dropped.
  double drop_probability = 0.0;
  /// Probability an individual message is delivered twice.
  double duplicate_probability = 0.0;
  /// Per-message CPU/serialization overhead added per 1KiB of payload.
  SimTime per_kib_cost = microseconds(2);
};

/// Capacity model for one directed link. The zero-initialized profile is
/// the "LAN" null model: infinite bandwidth, no added propagation, no queue
/// bound — exactly the pre-profile latency behavior.
struct LinkProfile {
  /// Serialization rate in bytes per simulated second; 0 = infinite (no
  /// transmission delay and no queueing on this link).
  std::uint64_t bandwidth_bytes_per_sec = 0;
  /// One-way propagation delay added on top of the global latency model
  /// (models distance; chaos latency spikes stack on top).
  SimTime propagation = 0;
  /// Maximum bytes awaiting or in transmission on the link; a message whose
  /// arrival would push the backlog above this is tail-dropped. 0 =
  /// unbounded. Only meaningful with finite bandwidth.
  std::size_t queue_bytes = 0;

  [[nodiscard]] bool is_null() const {
    return bandwidth_bytes_per_sec == 0 && propagation == 0;
  }
};

class World;

class Network {
 public:
  /// Schedules on `world`'s simulator and hands arrivals to
  /// World::deliver. Sends over links with a non-null resolved profile
  /// account bytes into the world's metrics as
  /// `network.bytes_sent{link=...}` (label `sA->sB` for site pairs, `pF->pT`
  /// for per-process overrides).
  Network(World& world, NetworkConfig config, Rng rng);

  /// Sends `msg` from `from` to `to`; delivery is scheduled per the latency
  /// and link-capacity model unless the message is dropped or the link is
  /// blocked. The only refcount bump on this path is the capture into the
  /// delivery event.
  void send(ProcessId from, ProcessId to, const MessagePtr& msg);

  /// Blocks / unblocks the directed link from->to (for partition tests).
  void block_link(ProcessId from, ProcessId to);
  void unblock_link(ProcessId from, ProcessId to);
  void unblock_all();

  // --- global knobs ---------------------------------------------------------
  // The config is read-only once the network exists; mid-run changes go
  // through these explicit setters so every mutation site is greppable and
  // per-link behavior stays in LinkProfile overrides. (An earlier revision
  // handed out a mutable NetworkConfig&, which let any caller silently
  // rewrite global behavior retroactively.)
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  void set_base_latency(SimTime t) { config_.base_latency = t; }
  void set_drop_probability(double p) { config_.drop_probability = p; }

  // --- link profiles / WAN topology ----------------------------------------
  /// Default profile for links without an override (null = pure latency).
  void set_default_profile(LinkProfile profile) { default_profile_ = profile; }
  /// Assigns `process` to a site (datacenter) for site-pair resolution.
  void set_site(ProcessId process, std::uint32_t site);
  [[nodiscard]] std::uint32_t site_of(ProcessId process) const;
  /// Profile for every directed link from a process in `from_site` to one in
  /// `to_site` (both directions must be set explicitly if asymmetric).
  void set_site_profile(std::uint32_t from_site, std::uint32_t to_site,
                        LinkProfile profile);
  /// Per-link override, strongest binding.
  void set_link_profile(ProcessId from, ProcessId to, LinkProfile profile);
  void clear_link_profile(ProcessId from, ProcessId to);
  /// Override currently installed for the link, if any (chaos nemeses use
  /// this to save/restore around degrade windows).
  [[nodiscard]] std::optional<LinkProfile> link_profile_override(
      ProcessId from, ProcessId to) const;
  /// Resolved profile the next send on from->to would use (override >
  /// site pair > default), before bandwidth scaling.
  [[nodiscard]] LinkProfile resolve_profile(ProcessId from, ProcessId to) const;

  /// Global bandwidth multiplier applied to every finite-bandwidth link
  /// (chaos bandwidth-collapse windows divide it). 1.0 = nominal; must be
  /// > 0. Infinite-bandwidth links are unaffected.
  void set_bandwidth_scale(double scale) { bandwidth_scale_ = scale; }
  [[nodiscard]] double bandwidth_scale() const { return bandwidth_scale_; }

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }
  /// Messages tail-dropped because a link's transmission queue was full
  /// (also counted in messages_dropped()).
  [[nodiscard]] std::uint64_t messages_queue_dropped() const {
    return messages_queue_dropped_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// A directed link, identified by the full 64-bit endpoint ids. (An earlier
  /// revision packed both ids into one 64-bit word, which silently collided
  /// for process ids >= 2^32.)
  struct LinkKey {
    std::uint64_t from;
    std::uint64_t to;
    bool operator==(const LinkKey&) const = default;
  };
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& key) const {
      // splitmix64-style mix of both halves; order-sensitive so (a, b) and
      // (b, a) hash independently.
      std::uint64_t x = key.from * 0x9e3779b97f4a7c15ULL ^ key.to;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }
  };

 private:
  /// Mutable transmission state of one finite-bandwidth link.
  struct LinkState {
    /// Instant the pipe finishes serializing everything accepted so far; a
    /// new message starts transmitting at max(now, busy_until).
    SimTime busy_until = 0;
    /// Bytes accepted but not yet fully on the wire (backs the queue cap).
    std::size_t queued_bytes = 0;
  };

  [[nodiscard]] SimTime sample_latency(std::size_t payload_bytes);
  void account_link_bytes(ProcessId from, ProcessId to, std::size_t bytes,
                          bool site_resolved);

  World& world_;
  Simulator& sim_;
  NetworkConfig config_;
  Rng rng_;
  std::unordered_set<LinkKey, LinkKeyHash> blocked_;
  LinkProfile default_profile_{};
  std::unordered_map<LinkKey, LinkProfile, LinkKeyHash> overrides_;
  std::unordered_map<std::uint64_t, std::uint32_t> sites_;
  /// Site-pair profiles keyed by from_site * 2^32 + to_site.
  std::unordered_map<std::uint64_t, LinkProfile> site_profiles_;
  std::unordered_map<LinkKey, LinkState, LinkKeyHash> link_states_;
  double bandwidth_scale_ = 1.0;
  MetricsRegistry& metrics_;
  /// Cached labeled series per link (label strings are built once).
  std::unordered_map<LinkKey, TimeSeries*, LinkKeyHash> link_series_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_queue_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dynastar::sim
