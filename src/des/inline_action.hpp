#pragma once
// Move-only type-erased callable with inline storage, sized so every
// event closure the simulator schedules fits without touching the heap
// (std::function allocates for captures beyond ~2 pointers on libstdc++).
// Oversized or over-aligned callables fall back to a single heap cell,
// so correctness never depends on the buffer size — only speed does.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cellstream::des {

class InlineAction {
 public:
  /// Inline buffer size in bytes.  The simulator's largest closure (the
  /// compute completion: this, a PE, a task id and the injected stall in
  /// seconds and ticks) is 40 bytes; its DMA closures hold this and a slot
  /// index.
  static constexpr std::size_t kInlineBytes = 48;

  InlineAction() = default;
  InlineAction(std::nullptr_t) {}  // NOLINT: match std::function's null

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
             !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineAction(F&& fn) {  // NOLINT: implicit like std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  // move into dst, end src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* src, void* dst) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); }};

  void move_from(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace cellstream::des
