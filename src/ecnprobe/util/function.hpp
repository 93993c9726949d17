// A move-only `void()` callable with generous inline storage. The event
// scheduler stores one callback per simulated event; std::function both
// requires copyability (so popping an event used to deep-copy any captured
// packet) and spills closures over ~2 pointers to the heap. UniqueFunction
// keeps closures up to kInlineSize bytes -- sized to fit a network-delivery
// lambda with its captured Datagram -- inline in the event record, so the
// steady-state schedule/fire cycle performs no heap allocation and moves,
// never copies, captured state.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ecnprobe::util {

class UniqueFunction {
public:
  /// Inline closure budget: fits `[this, to, ingress_if, d = Datagram]`
  /// delivery lambdas (a Datagram is 56 bytes) without heap fallback.
  static constexpr std::size_t kInlineSize = 152;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= kInlineSize &&
                  alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &inline_ops<Decayed>;
    } else {
      ::new (static_cast<void*>(storage_)) Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &heap_ops<Decayed>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(std::move(other)); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(std::move(other));
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { destroy(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename F>
  static constexpr Ops inline_ops = {
      [](void* self) { (*std::launder(reinterpret_cast<F*>(self)))(); },
      [](void* dst, void* src) {
        F* from = std::launder(reinterpret_cast<F*>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* self) { std::launder(reinterpret_cast<F*>(self))->~F(); },
  };

  template <typename F>
  static constexpr Ops heap_ops = {
      [](void* self) { (**std::launder(reinterpret_cast<F**>(self)))(); },
      [](void* dst, void* src) {
        F** from = std::launder(reinterpret_cast<F**>(src));
        ::new (dst) F*(*from);
        *from = nullptr;
      },
      [](void* self) { delete *std::launder(reinterpret_cast<F**>(self)); },
  };

  void move_from(UniqueFunction&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void destroy() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ecnprobe::util
