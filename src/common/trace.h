// Command-lifecycle tracing: a deterministic, allocation-light event
// collector recording where each command's time goes — client issue/retry,
// oracle relay, atomic-multicast ordering, borrow/return coordination,
// execution, reply — plus infrastructure events (multicast deliveries,
// Paxos decisions, plan applications, chaos injections).
//
// Design constraints (asserted by tests/test_observability.cpp):
//  * side-effect-free: recording never touches RNGs, timers, or protocol
//    state, so a traced run is event-for-event identical to an untraced one;
//  * bit-deterministic: events are appended in simulation order, so two
//    same-seed runs produce byte-identical traces;
//  * zero-cost when disabled: every hook (sim::Env::trace) is a single
//    predictable branch on `enabled()` with no virtual call behind it.
//
// See docs/OBSERVABILITY.md for the span model and how phases are derived.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/ids.h"

namespace dynastar {

/// Where in a command's (or message's) lifecycle an event was recorded.
/// The meaning of `key`/`detail` depends on the point (see TraceEvent).
enum class TracePoint : std::uint8_t {
  // --- command lifecycle: key = cmd_id, attempt = client attempt ---
  kClientIssue,       // client created the command; detail = CommandType
  kClientRoute,       // client routed an attempt; detail = 1 if via oracle
  kClientRetry,       // re-route; detail = 0 timeout, 1 kRetry, 2 kBusy
  kOracleRelay,       // oracle replica delivered + relayed; detail = target
  kServerDeliver,     // ExecCommand a-delivered; detail = partition
  kExecuteStart,      // app execution begins; detail = partition
  kReplySent,         // CommandReply sent; detail = ReplyStatus
  kClientComplete,    // client observed the result; detail = ReplyStatus
  // --- borrow / return coordination: key = cmd_id ---
  kTransferSent,      // source shipped its variables; detail = target part.
  kTransferReceived,  // target received a transfer; detail = source part.
  kReturnSent,        // target returned variables; detail = dest partition
  kReturnReceived,    // source got its variables back; detail = sender part.
  // --- infrastructure: attempt = 0 ---
  kMcastDelivered,    // key = multicast uid, detail = group
  kPaxosDecided,      // key = delivery seq, detail = group
  kPlanApplied,       // key = epoch, detail = partition (oracle: UINT64_MAX)
  kChaosEvent,        // key = event ordinal
  // --- recovery: key = slot position, detail = partition (see §Recovery) ---
  kCheckpoint,        // durable checkpoint captured; key = checkpoint slot
  kRecoveryRestore,   // recovered node restored its checkpoint; key = slot
  kSnapshotInstall,   // lagging replica installed a peer snapshot; key = slot
  // --- chunked state transfer span: key = manifest slot, node = receiver ---
  kStateTransferStart,  // manifest accepted; detail = total chunks
  kStateTransferEnd,    // all chunks received + spliced; detail = retransmits
  // --- admission control: key = cmd_id, attempt = client attempt ---
  kAdmit,             // leader admitted past a configured gate; detail = depth
  kShed,              // shed delivery processed; detail = admission depth
  kBusyReply,         // Busy sent to the client; detail = retry_after (ns)
  // --- STAR asymmetric execution ---
  kStarEpoch,         // epoch switch applied; key = epoch, detail = batch size
  kExecParallel,      // parallel batch flushed; key = makespan ns,
                      // attempt = waves, detail = batch size
  // --- read leases: key = cmd_id (vertex for revokes), attempt = attempt ---
  kLeaseGrant,        // lender granted a lease; detail = target partition
  kLeaseRead,         // target executed off validated leases; detail = objects
  kLeaseFallback,     // lease validation failed; detail = stale vertex count
  kLeaseRevoke,       // lease dropped; key = vertex, detail = peer partition
};

/// One fixed-width trace record. 40 bytes, trivially copyable; the collector
/// is a flat vector of these so recording is an amortized bump-and-store.
struct TraceEvent {
  SimTime time = 0;
  std::uint64_t key = 0;     // cmd_id / uid / seq / epoch (see TracePoint)
  std::uint64_t node = 0;    // recording process id
  std::uint64_t detail = 0;  // point-specific (partition, status, ...)
  std::uint32_t attempt = 0;
  TracePoint point = TracePoint::kClientIssue;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.time == b.time && a.key == b.key && a.node == b.node &&
           a.detail == b.detail && a.attempt == b.attempt &&
           a.point == b.point;
  }
};

/// Per-run event sink. One instance per sim::World; protocol cores record
/// into it through sim::Env::trace(), which stamps time and node. Disabled
/// by default.
class TraceCollector {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable(bool on = true) { enabled_ = on; }

  void record(TracePoint point, SimTime time, std::uint64_t key,
              std::uint32_t attempt, std::uint64_t node,
              std::uint64_t detail = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{time, key, node, detail, attempt, point});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Stable short name for a point ("client_issue", "oracle_relay", ...).
  static const char* point_name(TracePoint point);

  /// Writes the whole trace as CSV (one header + one row per event).
  void write_csv(std::FILE* out) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace dynastar
