// Strong identifier types shared across the DynaStar stack.
//
// Every distributed entity (process, group, partition, object, client) has
// its own id type so that interfaces are precisely typed (a PartitionId can
// never be passed where an ObjectId is expected).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>

#include "common/flat_map.h"

namespace dynastar {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kSimTimeNever = INT64_MAX;

constexpr SimTime nanoseconds(std::int64_t n) { return n; }
constexpr SimTime microseconds(std::int64_t n) { return n * 1000; }
constexpr SimTime milliseconds(std::int64_t n) { return n * 1'000'000; }
constexpr SimTime seconds(std::int64_t n) { return n * 1'000'000'000; }

/// Converts a simulated duration to fractional seconds (for reporting).
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e9; }
/// Converts a simulated duration to fractional milliseconds (for reporting).
constexpr double to_millis(SimTime t) { return static_cast<double>(t) / 1e6; }

/// A strongly typed integral identifier. `Tag` distinguishes unrelated id
/// spaces at compile time; the underlying representation is uint64.
template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }

  friend constexpr bool operator==(StrongId a, StrongId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(StrongId a, StrongId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(StrongId a, StrongId b) {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator>(StrongId a, StrongId b) {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator<=(StrongId a, StrongId b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>=(StrongId a, StrongId b) {
    return a.value_ >= b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.value_;
  }

 private:
  std::uint64_t value_ = 0;
};

struct ProcessTag {};
struct GroupTag {};
struct PartitionTag {};
struct ObjectTag {};
struct ClientTag {};

/// Identifies a single simulated process (replica, acceptor, client, ...).
using ProcessId = StrongId<ProcessTag>;
/// Identifies a multicast group (a set of replicas ordered by one Paxos).
using GroupId = StrongId<GroupTag>;
/// Identifies a state partition (shard). The oracle is partition-like but has
/// its own reserved GroupId, not a PartitionId.
using PartitionId = StrongId<PartitionTag>;
/// Identifies an application state variable (a PRObject in the paper).
using ObjectId = StrongId<ObjectTag>;
/// Identifies a client session.
using ClientId = StrongId<ClientTag>;

/// Sentinel meaning "no partition known".
inline constexpr PartitionId kNoPartition{UINT64_MAX};

}  // namespace dynastar

namespace std {
template <typename Tag>
struct hash<dynastar::StrongId<Tag>> {
  size_t operator()(dynastar::StrongId<Tag> id) const noexcept {
    // Well distributed even for dense ids.
    return static_cast<size_t>(dynastar::common::mix64(id.value()));
  }
};
}  // namespace std
