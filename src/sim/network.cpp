#include "sim/network.h"

#include <algorithm>

#include "common/metric_names.h"
#include "sim/world.h"

namespace dynastar::sim {

namespace {
Network::LinkKey link_key(ProcessId from, ProcessId to) {
  return Network::LinkKey{from.value(), to.value()};
}

std::uint64_t site_pair_key(std::uint32_t from_site, std::uint32_t to_site) {
  return (static_cast<std::uint64_t>(from_site) << 32) | to_site;
}

constexpr std::uint32_t kNoSite = UINT32_MAX;
}  // namespace

Network::Network(World& world, NetworkConfig config, Rng rng)
    : world_(world),
      sim_(world.sim()),
      config_(config),
      rng_(std::move(rng)),
      metrics_(world.metrics()) {}

SimTime Network::sample_latency(std::size_t payload_bytes) {
  SimTime latency = config_.base_latency;
  if (config_.jitter > 0)
    latency += static_cast<SimTime>(
        rng_.uniform(0, static_cast<std::uint64_t>(config_.jitter)));
  latency += config_.per_kib_cost *
             static_cast<SimTime>((payload_bytes + 1023) / 1024);
  return latency;
}

void Network::set_site(ProcessId process, std::uint32_t site) {
  sites_[process.value()] = site;
}

std::uint32_t Network::site_of(ProcessId process) const {
  auto it = sites_.find(process.value());
  return it == sites_.end() ? kNoSite : it->second;
}

void Network::set_site_profile(std::uint32_t from_site, std::uint32_t to_site,
                               LinkProfile profile) {
  site_profiles_[site_pair_key(from_site, to_site)] = profile;
}

void Network::set_link_profile(ProcessId from, ProcessId to,
                               LinkProfile profile) {
  overrides_[link_key(from, to)] = profile;
  link_series_.erase(link_key(from, to));  // label source may change
}

void Network::clear_link_profile(ProcessId from, ProcessId to) {
  overrides_.erase(link_key(from, to));
  link_series_.erase(link_key(from, to));
}

std::optional<LinkProfile> Network::link_profile_override(ProcessId from,
                                                          ProcessId to) const {
  auto it = overrides_.find(link_key(from, to));
  if (it == overrides_.end()) return std::nullopt;
  return it->second;
}

LinkProfile Network::resolve_profile(ProcessId from, ProcessId to) const {
  if (auto it = overrides_.find(link_key(from, to)); it != overrides_.end())
    return it->second;
  const std::uint32_t fs = site_of(from);
  const std::uint32_t ts = site_of(to);
  if (fs != kNoSite && ts != kNoSite) {
    auto it = site_profiles_.find(site_pair_key(fs, ts));
    if (it != site_profiles_.end()) return it->second;
  }
  return default_profile_;
}

void Network::account_link_bytes(ProcessId from, ProcessId to,
                                 std::size_t bytes, bool site_resolved) {
  const LinkKey key = link_key(from, to);
  auto it = link_series_.find(key);
  if (it == link_series_.end()) {
    // Site-resolved links aggregate per site pair (bounded cardinality even
    // with many processes); explicit overrides get a per-process label.
    char label[32];
    if (site_resolved) {
      std::snprintf(label, sizeof(label), "s%u->s%u", site_of(from),
                    site_of(to));
    } else {
      std::snprintf(label, sizeof(label), "p%llu->p%llu",
                    static_cast<unsigned long long>(from.value()),
                    static_cast<unsigned long long>(to.value()));
    }
    TimeSeries& series =
        metrics_.series(metric::kNetworkBytesSent, {{"link", label}});
    it = link_series_.emplace(key, &series).first;
  }
  it->second->add(sim_.now(), static_cast<double>(bytes));
}

void Network::send(ProcessId from, ProcessId to, const MessagePtr& msg) {
  ++messages_sent_;
  const std::size_t size = msg->size_bytes();
  bytes_sent_ += size;
  if (blocked_.contains(link_key(from, to))) {
    ++messages_dropped_;
    return;
  }
  if (config_.drop_probability > 0 && rng_.chance(config_.drop_probability)) {
    ++messages_dropped_;
    return;
  }
  const bool duplicate = config_.duplicate_probability > 0 &&
                         rng_.chance(config_.duplicate_probability);

  const bool has_override = overrides_.contains(link_key(from, to));
  LinkProfile profile = resolve_profile(from, to);
  SimTime tx_delay = 0;
  if (profile.bandwidth_bytes_per_sec > 0) {
    // FIFO pipe: this message starts serializing when everything accepted
    // before it is on the wire, so large messages delay their followers.
    const double rate = static_cast<double>(profile.bandwidth_bytes_per_sec) *
                        std::max(bandwidth_scale_, 1e-9);
    LinkState& link = link_states_[link_key(from, to)];
    if (profile.queue_bytes > 0 &&
        link.queued_bytes + size > profile.queue_bytes) {
      ++messages_dropped_;
      ++messages_queue_dropped_;
      return;
    }
    const SimTime now = sim_.now();
    const SimTime tx_start = std::max(now, link.busy_until);
    const SimTime tx_time = std::max<SimTime>(
        1, static_cast<SimTime>(static_cast<double>(size) * 1e9 / rate));
    link.busy_until = tx_start + tx_time;
    tx_delay = link.busy_until - now;  // queueing wait + serialization
    link.queued_bytes += size;
    sim_.schedule_after(link.busy_until - now, [this, from, to, size] {
      LinkState& l = link_states_[LinkKey{from.value(), to.value()}];
      l.queued_bytes -= std::min(l.queued_bytes, size);
    });
  }
  if (!profile.is_null() || has_override)
    account_link_bytes(from, to, size, /*site_resolved=*/!has_override);

  const SimTime latency = tx_delay + profile.propagation + sample_latency(size);
  sim_.schedule_after(latency, [this, from, to, msg] {
    world_.deliver(from, to, msg);
  });
  if (duplicate) {
    const SimTime dup_latency =
        tx_delay + profile.propagation + sample_latency(size);
    sim_.schedule_after(dup_latency, [this, from, to, msg] {
      world_.deliver(from, to, msg);
    });
  }
}

void Network::block_link(ProcessId from, ProcessId to) {
  blocked_.insert(link_key(from, to));
}

void Network::unblock_link(ProcessId from, ProcessId to) {
  blocked_.erase(link_key(from, to));
}

void Network::unblock_all() { blocked_.clear(); }

}  // namespace dynastar::sim
