// System-wide configuration for a DynaStar (or baseline) deployment.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ids.h"
#include "core/execution.h"
#include "partitioning/partitioner.h"
#include "paxos/replica.h"
#include "sim/network.h"

namespace dynastar::core {

/// Retry-after hint in Busy replies (servers and the oracle): base + depth
/// * per_item. The base is also the client's own busy-backoff floor.
inline constexpr SimTime kBusyRetryAfterBase = milliseconds(2);
inline constexpr SimTime kBusyRetryAfterPerItem = microseconds(50);

/// The retry-after hint of a Busy reply shed at admission depth `depth`.
constexpr SimTime busy_retry_after(std::size_t depth) {
  return kBusyRetryAfterBase +
         static_cast<SimTime>(depth) * kBusyRetryAfterPerItem;
}

struct SystemConfig {
  ExecutionMode mode = ExecutionMode::kDynaStar;

  std::uint32_t num_partitions = 4;
  std::uint32_t replicas_per_partition = 2;   // paper §6.1

  // --- DynaStar repartitioning ---
  /// False disables plans entirely (S-SMR always; DS-SMR has no plans).
  bool repartitioning_enabled = true;
  /// Algorithm 2 Task 4: recompute once `changes > threshold` hints arrive.
  std::uint64_t repartition_hint_threshold = 50'000;
  SimTime min_repartition_interval = seconds(20);
  /// Partitions a-mcast accumulated hints to the oracle every N executed
  /// commands. Count-based (not timer-based) so the report stream is a
  /// deterministic function of the partition's delivery order — all
  /// replicas emit identical reports.
  std::uint64_t hint_batch_commands = 200;
  /// Eager (Algorithm 3 Task 3) vs on-demand (§7) object relocation after a
  /// plan is delivered.
  bool eager_plan_transfer = true;
  /// Strict epoch validation: any command addressed under an older epoch is
  /// retried, even if its addressing is still correct (reproduces the
  /// paper's full cache invalidation on repartition, Fig. 8).
  bool strict_epoch_validation = true;

  // --- Client ---
  /// Maximum entries in a client's location cache (0 = unbounded). When
  /// full, a random resident entry is evicted.
  std::size_t client_cache_capacity = 0;

  // --- Client command timeouts / retransmission ---
  /// Timeout armed per outstanding command attempt; grows exponentially:
  /// min(cap, base * multiplier^(attempt-1)) + U[0, jitter].
  SimTime client_timeout_base = milliseconds(500);
  double client_timeout_multiplier = 2.0;
  SimTime client_timeout_jitter = milliseconds(50);
  SimTime client_timeout_cap = seconds(4);
  /// Attempts before the command completes with kTimeout (0 = retry forever).
  std::uint32_t client_max_attempts = 10;

  // --- Overload protection (0 = disabled; defaults keep behavior
  // bit-identical to a build without this subsystem) ---
  /// High-water mark for a partition server's admission queue (inbox +
  /// execution queue). Above it, the group leader orders client-facing
  /// ExecCommands as shed entries answered with kBusy instead of executing
  /// them. Protocol-internal traffic (borrows, returns, Paxos, multicast
  /// coordination, snapshots, plans) is never gated.
  std::size_t server_queue_cap = 0;
  /// High-water mark for the oracle's inflight set (inbox + unacked relays +
  /// pending creates). Above it, cache-miss lookups are shed before
  /// classification with a kBusy prophecy that still carries any cached
  /// locations, so a hot oracle degrades to a location cache.
  std::size_t oracle_inflight_cap = 0;
  /// Client retry budget for Busy replies: a token bucket holding at most
  /// `client_retry_budget` tokens, refilled one per
  /// `client_retry_token_interval`. Each Busy-triggered retry spends one
  /// token; an empty bucket completes the command kOverloaded. 0 disables
  /// (Busy retries are then unbounded, like timeouts with max_attempts=0).
  std::uint32_t client_retry_budget = 0;
  SimTime client_retry_token_interval = milliseconds(250);

  // --- Read leases (DynaStar / DS-SMR; off by default so runs are
  // bit-identical to a build without the subsystem) ---
  /// Serve read-only multi-partition commands from epoch-validated leased
  /// copies instead of borrow/return: lenders grant (and keep serving),
  /// readers validate lender epoch + per-vertex version at execute time and
  /// fall back to the borrow path via kRetry on any mismatch. Leases are
  /// volatile (cleared by plan epochs and crash-recovery).
  bool read_leases = false;

  // --- Oracle plan computation ---
  partitioning::PartitionerConfig partitioner;

  // --- Intra-partition parallel execution (core/parallel_exec.h) ---
  // Defaults keep behavior bit-identical to the serial apply path.
  /// Simulated lanes for the deterministic conflict-graph executor; 1
  /// disables batching entirely (the serial path is untouched).
  std::uint32_t exec_lanes = 1;

  // --- WAN topology (0 sites = the uniform latency-only LAN model, which
  // keeps every existing run bit-identical) ---
  /// Number of simulated datacenters. When > 0, System stripes each group's
  /// replicas and acceptors (and clients, in spawn order) across sites
  /// round-robin and installs the two site-pair profiles (system.cpp), so
  /// every Paxos group spans sites — quorums and state transfers cross the
  /// WAN.
  std::uint32_t net_sites = 0;

  paxos::ReplicaConfig paxos;
  sim::NetworkConfig network;
  std::uint64_t seed = 1;
};

}  // namespace dynastar::core
