// The ExecutionMode seam: the one place that knows how the four systems
// (DynaStar, S-SMR*, DS-SMR, STAR) differ in command addressing. Everything
// that routes a command — the oracle on a cache miss, the client on a cache
// hit — goes through route_command(), so a new mode changes addressing here
// and execution in the server, and nowhere else.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/ids.h"

namespace dynastar::core {

/// Which protocol the partition servers run.
enum class ExecutionMode : std::uint8_t {
  /// DynaStar (the paper): borrow omega to one target partition, execute
  /// once, return the variables; periodic METIS repartitioning.
  kDynaStar,
  /// S-SMR (Bezerra et al., DSN'14): static partitioning; every involved
  /// partition executes the command after exchanging copies of state.
  kSSMR,
  /// DS-SMR (Le et al., DSN'16): dynamic, but variables move permanently to
  /// the target on every multi-partition command; no workload graph.
  kDSSMR,
  /// STAR-style asymmetric execution: one designated master partition holds
  /// a full replica of the state (kept fresh by addressing every command to
  /// it). Single-partition commands execute partitioned as in DynaStar;
  /// multi-partition commands are deferred at the master and executed there
  /// in periodic log-ordered epochs, without borrow/return round-trips.
  kStar,
};

/// STAR: the partition holding the full replica and executing deferred
/// multi-partition commands at each epoch switch.
inline constexpr PartitionId kStarMaster{0};

inline constexpr ExecutionMode kAllModes[] = {
    ExecutionMode::kDynaStar, ExecutionMode::kSSMR, ExecutionMode::kDSSMR,
    ExecutionMode::kStar};

/// Canonical lowercase name ("dynastar", "ssmr", "dssmr", "star") — the
/// spelling used by the baseline registry and simctl --system.
const char* mode_name(ExecutionMode mode);

/// Inverse of mode_name; nullopt for unknown spellings.
std::optional<ExecutionMode> parse_mode(std::string_view name);

/// Deterministic choice of the execution target: the partition owning the
/// most of omega's objects; ties broken by lowest partition id (§4.2.2).
/// `dests` are the distinct owners of `owner_per_object`, sorted.
PartitionId choose_target(const std::vector<PartitionId>& dests,
                          const std::vector<PartitionId>& owner_per_object);

/// Addressing computed for one access/delete command, shared by the oracle
/// (cache-miss path) and the client (cache-hit path).
struct Route {
  /// Sorted, deduplicated multicast destinations.
  std::vector<PartitionId> dests;
  /// The partition that executes and replies.
  PartitionId target = kNoPartition;
  /// Protocol-level multi-partition: omega spans more than one *owner*.
  /// Under STAR this is NOT dests.size() > 1 — a single-owner command is
  /// also addressed to the master to keep its full replica fresh.
  bool multi = false;
};

/// True for the modes where the read-lease fast path applies: the
/// partitioned borrow/return protocols (DynaStar, DS-SMR). S-SMR executes
/// everywhere off exchanged copies and STAR defers multi-partition commands
/// to the master's epoch batches — neither has a borrow round-trip for a
/// lease to replace, so both are deliberately untouched by leases.
inline constexpr bool mode_supports_leases(ExecutionMode mode) {
  return mode == ExecutionMode::kDynaStar || mode == ExecutionMode::kDSSMR;
}

/// Computes the addressing for a command whose objects have believed
/// owners `owner_per_object`:
///  * partitioned modes: dests = distinct owners, target = majority owner;
///  * STAR single-owner: dests = {owner, master}, target = owner (the
///    master applies silently to stay a full replica);
///  * STAR multi-owner:  dests = {master}, target = master (deferred there
///    until the next fully-replicated epoch).
Route route_command(ExecutionMode mode,
                    const std::vector<PartitionId>& owner_per_object);

}  // namespace dynastar::core
