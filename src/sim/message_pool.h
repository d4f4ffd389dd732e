// Per-World freelist pool backing make_message allocations.
//
// The simulation is single-threaded and churns through millions of
// short-lived protocol messages per run; this pool recycles their
// allocations through per-size-class freelists (64-byte granularity, up to
// 1 KiB — larger messages fall through to the global allocator).
//
// Lifetime safety: messages can outlive the World that allocated them
// (tests keep replies around after tearing a world down), so the freelists
// live in a heap-allocated, refcounted PoolCore. Every live pooled block
// holds one reference; the owning MessagePool holds one. When the pool is
// destroyed it drains its freelists and closes the core; blocks freed after
// that go straight back to the global allocator, and the core itself is
// deleted when the last live block dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace dynastar::sim::detail {

constexpr std::size_t kPoolGranularity = 64;
// Size-class index is (size + 63) / 64, so valid classes are 1..16
// (64 B .. 1 KiB). kHeapClass marks blocks owned by the global allocator.
constexpr std::uint32_t kNumSizeClasses = 17;
constexpr std::uint16_t kHeapClass = 0xFFFF;

struct PoolCore {
  void* free_lists[kNumSizeClasses] = {};
  // 1 for the owning MessagePool (until closed) + 1 per live pooled block.
  std::uint64_t refs = 1;
  bool open = true;
  // Stats surfaced by bench/kernel_throughput.
  std::uint64_t allocs = 0;
  std::uint64_t reuses = 0;
};

// The pool new messages allocate from; installed by the owning World.
// Thread-local only as a guard rail — the kernel itself is single-threaded.
inline thread_local PoolCore* g_current_pool = nullptr;

inline void* pool_alloc(std::size_t size, std::uint16_t* cls_out,
                        PoolCore** core_out) {
  PoolCore* core = g_current_pool;
  const auto cls = static_cast<std::uint32_t>(
      (size + kPoolGranularity - 1) / kPoolGranularity);
  if (core == nullptr || cls >= kNumSizeClasses) {
    *cls_out = kHeapClass;
    *core_out = nullptr;
    return ::operator new(size);
  }
  *cls_out = static_cast<std::uint16_t>(cls);
  *core_out = core;
  ++core->allocs;
  ++core->refs;
  void*& head = core->free_lists[cls];
  if (head != nullptr) {
    void* block = head;
    head = *static_cast<void**>(block);
    ++core->reuses;
    return block;
  }
  return ::operator new(static_cast<std::size_t>(cls) * kPoolGranularity);
}

inline void pool_free(void* block, std::uint16_t cls,
                      PoolCore* core) noexcept {
  if (core == nullptr) {
    ::operator delete(block);
    return;
  }
  if (core->open) {
    *static_cast<void**>(block) = core->free_lists[cls];
    core->free_lists[cls] = block;
  } else {
    ::operator delete(block);
  }
  if (--core->refs == 0) delete core;
}

}  // namespace dynastar::sim::detail

namespace dynastar::sim {

class MessagePool {
 public:
  MessagePool() : core_(new detail::PoolCore) {}
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  ~MessagePool() {
    if (detail::g_current_pool == core_) detail::g_current_pool = nullptr;
    core_->open = false;
    for (void*& head : core_->free_lists) {
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
    }
    if (--core_->refs == 0) delete core_;
  }

  /// Makes this pool the allocation target for subsequent make_message
  /// calls on this thread.
  void install() { detail::g_current_pool = core_; }

  [[nodiscard]] std::uint64_t allocs() const { return core_->allocs; }
  [[nodiscard]] std::uint64_t reuses() const { return core_->reuses; }

 private:
  detail::PoolCore* core_;
};

}  // namespace dynastar::sim
