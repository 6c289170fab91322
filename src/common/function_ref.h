// Non-owning, non-allocating callable reference.
//
// The batched GEMM kernels (src/nn/gemm.h) take fill/consume/epilogue
// hooks that run inside parallel-dispatch bodies. `std::function` there
// costs a possible heap allocation per call-site construction — exactly
// the allocation class the hot-path lint bans inside `ParallelFor`
// bodies — and its type erasure is heavier than the kernels need: every
// hook is invoked synchronously and never outlives the kernel call.
// FunctionRef is the trimmed-down replacement: two words (object pointer
// plus invoker), trivially copyable, never allocates.
//
// Lifetime contract: a FunctionRef borrows the callable it was built
// from. Binding a temporary lambda in a call expression is safe (the
// temporary lives until the call returns); *storing* a FunctionRef
// beyond the callable's lifetime is not. Kernel hooks satisfy this by
// construction: every one is a parameter, never a stored member. The
// one stored FunctionRef is ThreadPool::body_, the dispatch in flight:
// it is set and cleared under the pool's mutex, and Dispatch, whose
// caller owns the callable, blocks until the last worker has finished
// with it before clearing it and returning.

#ifndef DPBR_COMMON_FUNCTION_REF_H_
#define DPBR_COMMON_FUNCTION_REF_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace dpbr {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Empty ref; calling it is undefined. Test with operator bool first.
  constexpr FunctionRef() = default;
  constexpr FunctionRef(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  /// Binds any callable invocable as R(Args...). Non-owning: `f` must
  /// outlive every call through this ref.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same<std::decay_t<F>, FunctionRef>::value &&
                std::is_invocable_r<R, F&, Args...>::value>>
  FunctionRef(F&& f)  // NOLINT(runtime/explicit)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_(&Invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return call_ != nullptr; }

 private:
  template <typename F>
  static R Invoke(void* obj, Args... args) {
    return (*static_cast<F*>(obj))(std::forward<Args>(args)...);
  }

  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace dpbr

#endif  // DPBR_COMMON_FUNCTION_REF_H_
