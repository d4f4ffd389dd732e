// Small-buffer-optimized move-only callable for simulator events.
//
// Every scheduled event used to heap-allocate a std::function; the captures
// actually used in this codebase are small (the network delivery lambda is
// 32 bytes with intrusive MessagePtr, Process timer wrappers are 48), so an
// inline buffer of 48 bytes makes event scheduling allocation-free on the
// hot path. Larger captures transparently fall back to the heap.
//
// Relocation contract: moving an EventFn relocates the stored callable by
// memcpy (no move-constructor call). The event queue relocates each action
// twice, into its slab and out of it, and orders only {key, slot} records.
// Callables must therefore be trivially relocatable — true
// for every capture in this codebase: raw pointers, ids, sim::Ref,
// std::function (libstdc++ stores non-trivially-copyable targets on the
// heap). Do not capture self-referential types (e.g. std::string with SSO,
// std::list) by value directly in an event lambda; wrap them in a
// std::function or capture by pointer instead.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace dynastar::sim {

class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = 16;

  constexpr EventFn() noexcept = default;
  constexpr EventFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = inline_vtable<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = heap_vtable<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) std::memcpy(storage_, other.storage_, kInlineSize);
    other.vt_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) std::memcpy(storage_, other.storage_, kInlineSize);
      other.vt_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static const VTable* inline_vtable() {
    static constexpr VTable vt{
        [](void* s) { (*static_cast<Fn*>(s))(); },
        [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
    };
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() {
    static constexpr VTable vt{
        [](void* s) { (**static_cast<Fn**>(s))(); },
        [](void* s) noexcept { delete *static_cast<Fn**>(s); },
    };
    return &vt;
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace dynastar::sim
