// Message base for inter-process communication in the simulation.
//
// The simulated network passes immutable shared message objects instead of
// byte buffers — a documented substitution for wire serialization: the
// protocols never mutate a received message, so sharing one allocation among
// all destinations preserves distributed semantics while keeping the
// simulator fast.
//
// Every message type of the stack (reliable links, Paxos, multicast, the
// DynaStar layer) derives from Typed<Kind::kX>, which stamps its Kind into
// the base object. Handlers route with one `switch (msg->kind())` and
// downcast with sim::as<T>, which checks the tag. Application payloads
// derive from plain Message, are Kind::kOpaque to the stack, and stay the
// application's to inspect.
//
// Sharing is tracked by a non-atomic intrusive refcount (the kernel is
// single-threaded, so atomic refcount traffic would be pure overhead) via
// sim::Ref<T>; allocations are recycled through the per-World MessagePool
// (see message_pool.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/message_pool.h"

namespace dynastar::sim {

class Message;

/// The concrete type of a stack message, grouped by layer in the order
/// docs/PROTOCOL.md lists them. kOpaque marks application payloads.
// clang-format off
enum class Kind : std::uint8_t {
  kOpaque,
  // Reliable links (sim/reliable.h).
  kReliableMsg, kReliableAck, kResendReq, kStableNotice,
  // Multi-Paxos (paxos/messages.h).
  kProposeReq, kPrepare, kPromise, kNack, kAccept, kAccepted, kDecision,
  kHeartbeat, kCatchupReq, kBatch, kInstallSnapshotReq, kChunkManifest,
  kStateChunkReq, kStateChunk, kStateChunkAck, kInstallSnapshotResp,
  // Atomic multicast (multicast/messages.h).
  kMcastData, kMcastSend, kMcastAck, kStartEntry, kTsProposal, kFinalEntry,
  // DynaStar layer (core/): ordered payloads, direct messages, snapshots.
  kCommand, kOracleRequest, kExecCommand, kHintReport, kPlanMsg,
  kLocationUpdate, kStarEpochMsg, kProphecy, kCommandReply, kVarTransfer,
  kVarReturn, kObjectHandoff, kHandoffChunk, kFetchVertex, kAbortNotice,
  kStarEpochUpdate, kLeaseGrant, kLeaseRevoke, kOracleSnapshotMsg,
  kServerSnapshotMsg,
};
// clang-format on

namespace detail {
struct MessageAccess;
inline void message_add_ref(const Message* m) noexcept;
inline void message_release(const Message* m) noexcept;
}  // namespace detail

class Message {
 public:
  Message() = default;
  // Copying a message produces a fresh object with its own refcount and
  // pool identity; of the bookkeeping fields only the kind transfers.
  Message(const Message& other) noexcept : kind_(other.kind_) {}
  Message& operator=(const Message&) noexcept { return *this; }
  virtual ~Message() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// Approximate wire size; the network uses it for bandwidth accounting.
  [[nodiscard]] virtual std::size_t size_bytes() const { return 64; }

 protected:
  explicit Message(Kind kind) noexcept : kind_(kind) {}

 private:
  friend struct detail::MessageAccess;

  mutable std::int32_t refs_ = 0;
  std::uint16_t pool_class_ = detail::kHeapClass;
  Kind kind_ = Kind::kOpaque;
  detail::PoolCore* pool_core_ = nullptr;
};

static_assert(sizeof(Message) == 24, "vptr + refcount + pool tags + kind");

/// Base of every stack message type, which names its kind in its base
/// clause: `struct Prepare final : sim::Typed<sim::Kind::kPrepare>`.
template <Kind K>
struct Typed : Message {
  static constexpr Kind kKind = K;
  Typed() noexcept : Message(K) {}
};

/// Intrusive smart pointer for Message subclasses. Copy bumps the
/// non-atomic refcount; the object destroys itself (returning its block to
/// the owning pool) when the last Ref drops.
template <typename T>
class Ref {
 public:
  using element_type = T;

  constexpr Ref() noexcept = default;
  constexpr Ref(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  /// Takes a new reference on `ptr` (which may already be shared).
  explicit Ref(T* ptr) noexcept : ptr_(ptr) {
    if (ptr_ != nullptr) detail::message_add_ref(ptr_);
  }

  Ref(const Ref& other) noexcept : ptr_(other.ptr_) {
    if (ptr_ != nullptr) detail::message_add_ref(ptr_);
  }
  Ref(Ref&& other) noexcept : ptr_(other.ptr_) { other.ptr_ = nullptr; }

  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(const Ref<U>& other) noexcept  // NOLINT(runtime/explicit)
      : ptr_(other.get()) {
    if (ptr_ != nullptr) detail::message_add_ref(ptr_);
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(Ref<U>&& other) noexcept  // NOLINT(runtime/explicit)
      : ptr_(other.detach()) {}

  Ref& operator=(const Ref& other) noexcept {
    Ref(other).swap(*this);
    return *this;
  }
  Ref& operator=(Ref&& other) noexcept {
    Ref(std::move(other)).swap(*this);
    return *this;
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref& operator=(const Ref<U>& other) noexcept {
    Ref(other).swap(*this);
    return *this;
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref& operator=(Ref<U>&& other) noexcept {
    Ref(std::move(other)).swap(*this);
    return *this;
  }
  Ref& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~Ref() {
    if (ptr_ != nullptr) detail::message_release(ptr_);
  }

  [[nodiscard]] T* get() const noexcept { return ptr_; }
  T& operator*() const noexcept { return *ptr_; }
  T* operator->() const noexcept { return ptr_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return ptr_ != nullptr;
  }

  void reset() noexcept {
    if (ptr_ != nullptr) {
      detail::message_release(ptr_);
      ptr_ = nullptr;
    }
  }

  /// Releases ownership without touching the refcount.
  [[nodiscard]] T* detach() noexcept {
    T* p = ptr_;
    ptr_ = nullptr;
    return p;
  }

  void swap(Ref& other) noexcept { std::swap(ptr_, other.ptr_); }

 private:
  T* ptr_ = nullptr;
};

template <typename T, typename U>
[[nodiscard]] bool operator==(const Ref<T>& a, const Ref<U>& b) noexcept {
  return a.get() == b.get();
}
template <typename T>
[[nodiscard]] bool operator==(const Ref<T>& a, std::nullptr_t) noexcept {
  return a.get() == nullptr;
}

namespace detail {

struct MessageAccess {
  static void add_ref(const Message* m) noexcept { ++m->refs_; }

  static void release(const Message* m) noexcept {
    if (--m->refs_ != 0) return;
    const std::uint16_t cls = m->pool_class_;
    PoolCore* core = m->pool_core_;
    // The block starts at the most-derived object (make_message constructs
    // the full object at the allocation address); recover it before the
    // vptr is destroyed.
    void* block = const_cast<void*>(dynamic_cast<const void*>(m));
    m->~Message();
    pool_free(block, cls, core);
  }

  static void set_pool(const Message* m, std::uint16_t cls,
                       PoolCore* core) noexcept {
    auto* mut = const_cast<Message*>(m);
    mut->pool_class_ = cls;
    mut->pool_core_ = core;
  }
};

inline void message_add_ref(const Message* m) noexcept {
  MessageAccess::add_ref(m);
}
inline void message_release(const Message* m) noexcept {
  MessageAccess::release(m);
}

}  // namespace detail

using MessagePtr = Ref<const Message>;

/// The message as a `T`, or null when `m` is null or of another kind.
template <typename T>
[[nodiscard]] const T* as(const Message* m) noexcept {
  static_assert(T::kKind != Kind::kOpaque, "sim::as needs a stack message");
  return m != nullptr && m->kind() == T::kKind ? static_cast<const T*>(m)
                                               : nullptr;
}

/// Shared-ownership form of as<T>: a new reference, or null on a mismatch.
template <typename T>
[[nodiscard]] Ref<const T> as(const MessagePtr& m) noexcept {
  return Ref<const T>(as<T>(m.get()));
}

/// Factory for builder-style code that fills fields in before handing the
/// message off: returns a mutable Ref (it converts implicitly to
/// Ref<const T> / MessagePtr). Allocates from the installed per-World pool
/// when one is active.
template <typename T, typename... Args>
Ref<T> make_mutable_message(Args&&... args) {
  static_assert(std::is_base_of_v<Message, T>,
                "make_message requires a sim::Message subclass");
  std::uint16_t cls = detail::kHeapClass;
  detail::PoolCore* core = nullptr;
  void* mem = detail::pool_alloc(sizeof(T), &cls, &core);
  T* obj = ::new (mem) T(std::forward<Args>(args)...);
  detail::MessageAccess::set_pool(obj, cls, core);
  return Ref<T>(obj);
}

/// Convenience factory: make_message<Prepare>(args...).
template <typename T, typename... Args>
Ref<const T> make_message(Args&&... args) {
  return make_mutable_message<T>(std::forward<Args>(args)...);
}

}  // namespace dynastar::sim
