#pragma once
// Error handling primitives for cellstream.
//
// The library reports contract violations and invalid inputs by throwing
// cellstream::Error (derived from std::runtime_error).  CS_ENSURE is used at
// public API boundaries; CS_ASSERT guards internal invariants and compiles to
// the same check (the library is not performance-critical enough to strip
// internal checks in release builds, and silent corruption of a schedule is
// far worse than a branch).

#include <stdexcept>
#include <string>

namespace cellstream {

/// Exception type thrown on any contract violation or invalid input.
/// what() is the message alone, fit to show a user; a CS_ENSURE failure
/// also carries the failed condition and its source location in
/// context(), for tests and logs.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, const std::string& context = "")
      : std::runtime_error(what), context_(context) {}

  /// "<condition> failed at <file>:<line>" for a CS_ENSURE failure; empty
  /// otherwise.
  const char* context() const noexcept { return context_.what(); }

 private:
  std::runtime_error context_;  // a string that copies without throwing
};

namespace detail {
[[noreturn]] void throw_error(const char* file, int line, const char* expr,
                              const std::string& message);
}  // namespace detail

}  // namespace cellstream

/// Validate a condition; on failure throw cellstream::Error with `msg` as
/// its message and the condition and source line as its context.
#define CS_ENSURE(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::cellstream::detail::throw_error(__FILE__, __LINE__, #cond, msg);  \
    }                                                                     \
  } while (0)

/// Internal invariant check.  Same behaviour as CS_ENSURE; distinct macro so
/// call sites document intent (caller bug vs. library bug).
#define CS_ASSERT(cond, msg) CS_ENSURE(cond, msg)
