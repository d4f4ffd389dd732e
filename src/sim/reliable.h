// ReliableLink: ack + retransmit for point-to-point protocol messages, with
// crash-recovery support.
//
// The simulated network may drop messages; most protocol layers already
// repair their own traffic (Paxos retries phase 2, the multicast repair
// timer re-drives coordination), but the direct server-to-server messages
// (variable transfers/returns, plan handoffs, abort notices) have no
// retransmission path of their own — a single lost transfer would block a
// partition's queue head forever.
//
// v1 semantics (retransmit until acked) are not enough once receivers can
// lose state: a message acked by an incarnation that later crashes and rolls
// back to a checkpoint taken BEFORE the delivery is gone on both sides. So:
//
//  - An ack only stops retransmission. The entry is RETAINED until the
//    receiver's durable checkpoint provably covers the delivery: the
//    receiver broadcasts a StableNotice carrying its checkpoint capture
//    time, and the sender prunes entries whose ack arrived strictly before
//    that time (ack receipt at t_a implies delivery at some t <= t_a).
//  - On recovery, the restored receiver sends a ResendReq to every potential
//    peer; each peer re-drives its full retained buffer for that receiver.
//    ResendReq itself travels through the link (acked + retransmitted).
//  - On recovery, the restored sender re-sends every retained entry — its
//    own ack bookkeeping above the checkpoint is gone too.
//  - A retry-budget exhaustion (peer presumed dead) stops retransmission
//    but keeps the entry: the peer's eventual ResendReq revives it.
//
// Receivers must be idempotent under duplicates: recovery re-drives entire
// buffers. All wrapped DynaStar messages already dedupe at the protocol
// level, and that dedup state is part of the application checkpoint.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "sim/env.h"
#include "sim/message.h"

namespace dynastar::sim {

/// Wrapper carrying the retransmission token.
struct ReliableMsg final : Typed<Kind::kReliableMsg> {
  ReliableMsg(std::uint64_t t, MessagePtr m) : token(t), inner(std::move(m)) {}
  std::size_t size_bytes() const override {
    return 8 + (inner ? inner->size_bytes() : 0);
  }
  std::uint64_t token;
  MessagePtr inner;
};

struct ReliableAck final : Typed<Kind::kReliableAck> {
  explicit ReliableAck(std::uint64_t t) : token(t) {}
  std::uint64_t token;
};

/// Recovered receiver -> peer: re-send everything you retain for me.
/// Travels through the link itself (wrapped, acked, retransmitted).
struct ResendReq final : Typed<Kind::kResendReq> {};

/// Checkpointing receiver -> peers: my durable checkpoint was captured at
/// `capture_time`; deliveries before it can never be rolled back.
struct StableNotice final : Typed<Kind::kStableNotice> {
  explicit StableNotice(SimTime t) : capture_time(t) {}
  SimTime capture_time;
};

class ReliableLink {
 public:
  // Word-sized fields first, so an entry packs into 40 bytes.
  struct Entry {
    ProcessId to{0};
    MessagePtr wrapped;
    SimTime last_tx = 0;
    SimTime acked_at = 0;
    std::uint32_t tries = 0;
    bool acked = false;
    bool control = false;  // link-internal (ResendReq); dropped on ack
  };

  /// Sender-side state captured into a checkpoint: the retained sends
  /// sorted by token. Control entries are excluded (they are
  /// incarnation-local).
  struct State {
    std::vector<std::pair<std::uint64_t, Entry>> pending;
    std::uint64_t next_token = 0;
    std::uint64_t epoch = 0;
  };

  // Retransmission cadence and budget. The interval is well above one
  // network round-trip (hundreds of microseconds), so in a loss-free run a
  // message is acked long before the first retry fires. ~5 simulated
  // seconds of retries outlives every crash window the chaos injector
  // schedules; a peer that stays down longer revives the buffer with a
  // ResendReq when it returns.
  static constexpr SimTime kRetryInterval = milliseconds(100);
  static constexpr std::uint32_t kMaxTries = 50;

  explicit ReliableLink(Env& env) : env_(env) {}

  /// Sends `msg` to `to`, retransmitting until acked; the entry is retained
  /// past the ack until the receiver's checkpoint covers it.
  void send(ProcessId to, MessagePtr msg);

  /// Consumes ReliableMsg/ReliableAck/StableNotice (and link-internal
  /// ResendReqs). For an application ReliableMsg, acks the sender and
  /// surfaces the payload via `*inner` for the caller to dispatch. Returns
  /// false (and leaves `*inner` null) for any other message type.
  bool handle(ProcessId from, const MessagePtr& msg, MessagePtr* inner);

  /// Captures retained sends for the owner's checkpoint.
  [[nodiscard]] State capture() const;

  /// Restores after a crash: re-sends every retained entry, in token
  /// order, under a fresh token epoch (acks above the checkpoint were lost
  /// with the heap) and asks every potential peer to re-drive its buffer
  /// for us.
  void restore(const State& s, const std::vector<ProcessId>& peers);

  /// Announces a durable checkpoint captured at `capture_time` so peers can
  /// prune entries this checkpoint covers.
  void note_checkpoint(SimTime capture_time,
                       const std::vector<ProcessId>& peers);

  /// Entries still awaiting an ack (excludes acked-but-retained ones).
  [[nodiscard]] std::size_t unacked() const;
  /// Total retained entries, acked or not.
  [[nodiscard]] std::size_t retained() const { return pending_.size(); }

 private:
  void enqueue(ProcessId to, MessagePtr msg, bool control);
  void redrive(ProcessId peer);
  /// Rebuilds live_ and outstanding_ from pending_.
  void recount();
  void maybe_arm();
  void on_timer();
  [[nodiscard]] std::uint64_t new_token();
  [[nodiscard]] static bool live(const Entry& e);

  Env& env_;
  // token -> retained send. Send order draws the network's jitter, so the
  // order of every batch re-send comes from sorting tokens, never from the
  // table's slots: redrive and on_timer sort the tokens they visit, and
  // capture sorts the checkpoint that restore re-sends. Insertion order
  // would not do either: tokens stop rising with send order once the
  // counter passes 2^20.
  common::FlatMap<std::uint64_t, Entry, common::Mix64Hash> pending_;
  // Arming and retransmission look only at live entries (unacked, retry
  // budget left), not at the acked ones retained until a StableNotice.
  // live_ counts them; outstanding_ lists the token of every live entry,
  // plus tokens that stopped being live since the last on_timer, which
  // drops them.
  std::size_t live_ = 0;
  std::vector<std::uint64_t> outstanding_;
  // Per peer, (acked_at, token) of every non-control entry acked, in ack
  // (hence time) order, so a StableNotice pops a prefix instead of scanning
  // pending_. redrive and restore reset `acked` and leave stale records
  // behind; a record prunes only an entry still acked at that same time.
  // Keyed by peer process id; looked up, never iterated.
  struct AckLog {
    std::vector<std::pair<SimTime, std::uint64_t>> records;
    std::size_t head = 0;  // records before it are consumed
  };
  common::FlatMap<std::uint64_t, AckLog, common::Mix64Hash> acked_;
  std::uint64_t next_token_ = 0;
  std::uint64_t epoch_ = 0;  // bumped per incarnation; salts tokens
  bool armed_ = false;
};

static_assert(sizeof(ReliableLink::Entry) == 40);

}  // namespace dynastar::sim
