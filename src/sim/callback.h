// The engine's event callback: a move-only, type-erased `void()` callable
// with inline storage.
//
// Every posted event is one of these. A callable that fits the inline
// buffer (and moves without throwing) is stored in place, so posting it
// allocates nothing; the buffer is sized for the link-arrival closure
// (`[this, link_id, Packet]`, net/network.cpp asserts it fits). Larger
// callables are boxed on the heap behind the same interface. Trivially
// copyable callables — the arrival closure among them — relocate with a
// plain memcpy and need no destructor call.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace adtc {

class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 104;

  /// True when `F` is stored in place rather than boxed on the heap.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventCallback> &&
             std::is_invocable_r_v<void, D&>)
  EventCallback(F&& f) {  // NOLINT: implicit, callers pass lambdas
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof(boxed));
      ops_ = &kBoxedOps<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { TakeFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventCallback");
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` and destroys `src`; nullptr means the
    /// stored bytes relocate with memcpy.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means nothing to destroy.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) noexcept {
                      D* from = std::launder(static_cast<D*>(src));
                      ::new (dst) D(std::move(*from));
                      from->~D();
                    },
      kTrivial<D> ? nullptr
                  : +[](void* s) noexcept {
                      std::launder(static_cast<D*>(s))->~D();
                    },
  };

  // A boxed callable is a pointer in the buffer: it relocates by memcpy.
  template <typename D>
  static D* Boxed(void* s) {
    D* boxed;
    std::memcpy(&boxed, s, sizeof(boxed));
    return boxed;
  }
  template <typename D>
  static constexpr Ops kBoxedOps = {
      [](void* s) { (*Boxed<D>(s))(); },
      nullptr,
      [](void* s) noexcept { delete Boxed<D>(s); },
  };

  void TakeFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }
  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace adtc
