// A move-only callable with small-buffer optimization.
//
// The discrete-event engine fires millions of closures per simulated
// minute; storing each one in a std::function costs a heap allocation
// whenever the capture exceeds the library's tiny inline buffer (16
// bytes on libstdc++ — smaller than the link-completion closures).
// SmallFunction inlines captures up to `Capacity` bytes directly in the
// object and falls back to the heap only for oversized ones, so the
// steady-state event hot path never allocates.
//
// Unlike std::function it is move-only, which lets closures own
// move-only resources (pooled packets, unique_ptrs) without shared_ptr
// wrappers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace corelite::sim {

/// A callable that declares the address it touches first, so the event
/// dispatcher can prefetch it one event ahead (see EventQueue).  The hint
/// never changes what the call does.  It is the first member: SmallFunction
/// reads it from the start of its buffer without knowing F.
template <class F>
struct Hinted {
  const void* hint;
  F f;
  template <class... A>
  decltype(auto) operator()(A&&... args) { return f(std::forward<A>(args)...); }
};

template <class F>
Hinted<std::decay_t<F>> hinted(const void* hint, F&& f) {
  return {hint, std::forward<F>(f)};
}

template <class D>
inline constexpr bool kIsHinted = false;
template <class F>
inline constexpr bool kIsHinted<Hinted<F>> = true;

template <class Sig, std::size_t Capacity = 48>
class SmallFunction;

template <class R, class... Args, std::size_t Capacity>
class SmallFunction<R(Args...), Capacity> {
 public:
  /// True if a `D` is stored inline: it fits and moves without throwing,
  /// so relocation (and heap sifting in the event queue) cannot fail.
  template <class D>
  static constexpr bool kFitsInline = sizeof(D) <= Capacity &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  SmallFunction() noexcept = default;
  SmallFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) relocate_from(other.buf_);
    other.ops_ = nullptr;
  }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) relocate_from(other.buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  /// Construct a callable directly in our buffer, destroying the current
  /// one.  Lets the event queue build the closure in its storage slot in
  /// one step instead of constructing a temporary and relocating it
  /// through every by-value parameter on the way in.
  template <class F, class D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, SmallFunction>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<R, D&, Args...>);
      reset();
      if constexpr (kFitsInline<D>) {
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
        ops_ = &kInlineOps<D>;
      } else {
        ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
        ops_ = &kHeapOps<D>;
      }
    }
  }

  /// Destroy the held callable (if any); leaves the function empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True if the callable lives in the inline buffer (no heap involved).
  [[nodiscard]] bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_stored; }

  /// The address an inline Hinted callable declared; nullptr for plain,
  /// heap-stored or empty functions.
  [[nodiscard]] const void* hint() const noexcept {
    if (ops_ == nullptr || !ops_->hinted) return nullptr;
    return *std::launder(reinterpret_cast<const void* const*>(buf_));
  }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "invoking an empty SmallFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// Invoke the callable and destroy it through ONE dispatched call,
  /// leaving the function empty.  The event loop fires every callback
  /// exactly once and then drops it; fusing the two operations removes
  /// an indirect call (and its branch-target miss) per event.
  R consume(Args... args) {
    assert(ops_ != nullptr && "consuming an empty SmallFunction");
    const Ops* ops = ops_;
    ops_ = nullptr;
    return ops->invoke_destroy(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    R (*invoke_destroy)(void*, Args&&...);            ///< invoke, then destroy
    void (*relocate)(void* src, void* dst) noexcept;  ///< move into dst, destroy src
    void (*destroy)(void*) noexcept;
    bool inline_stored;
    /// Trivially copyable inline callables relocate by memcpy and skip
    /// the destructor — the move path compiles to a few register copies
    /// with no indirect calls.
    bool trivial;
    bool hinted;  ///< an inline Hinted<...>: its buffer starts with the hint
  };

  /// Move the callable out of `src_buf` into our own buffer.
  /// Precondition: ops_ is set to the source's ops.
  void relocate_from(void* src_buf) noexcept {
    if (ops_->trivial) {
      std::memcpy(buf_, src_buf, Capacity);
    } else {
      ops_->relocate(src_buf, buf_);
    }
  }

  template <class D>
  struct InlineModel {
    static D* self(void* p) noexcept { return std::launder(reinterpret_cast<D*>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*self(p))(std::forward<Args>(args)...);
    }
    static R invoke_destroy(void* p, Args&&... args) {
      D* d = self(p);
      if constexpr (std::is_void_v<R>) {
        (*d)(std::forward<Args>(args)...);
        d->~D();
      } else {
        R r = (*d)(std::forward<Args>(args)...);
        d->~D();
        return r;
      }
    }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) D(std::move(*self(src)));
      self(src)->~D();
    }
    static void destroy(void* p) noexcept { self(p)->~D(); }
  };

  template <class D>
  struct HeapModel {
    static D* self(void* p) noexcept { return *std::launder(reinterpret_cast<D**>(p)); }
    static R invoke(void* p, Args&&... args) {
      return (*self(p))(std::forward<Args>(args)...);
    }
    static R invoke_destroy(void* p, Args&&... args) {
      D* d = self(p);
      if constexpr (std::is_void_v<R>) {
        (*d)(std::forward<Args>(args)...);
        delete d;
      } else {
        R r = (*d)(std::forward<Args>(args)...);
        delete d;
        return r;
      }
    }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) D*(self(src));
    }
    static void destroy(void* p) noexcept { delete self(p); }
  };

  template <class D>
  static constexpr Ops kInlineOps{&InlineModel<D>::invoke, &InlineModel<D>::invoke_destroy,
                                  &InlineModel<D>::relocate, &InlineModel<D>::destroy, true,
                                  std::is_trivially_copyable_v<D>, kIsHinted<D>};
  // The heap representation (a single owning pointer) relocates by
  // pointer copy, but destruction must still delete — never trivial.
  template <class D>
  static constexpr Ops kHeapOps{&HeapModel<D>::invoke, &HeapModel<D>::invoke_destroy,
                                &HeapModel<D>::relocate, &HeapModel<D>::destroy, false, false, false};

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace corelite::sim
