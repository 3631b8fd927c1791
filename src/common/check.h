// Lightweight runtime-contract checking used across commsched.
//
// CS_CHECK(cond, msg...)   - always-on invariant check; throws ContractError.
// CS_DCHECK(cond, msg...)  - debug-only (compiled out in NDEBUG builds).
// CS_UNREACHABLE(msg)      - marks impossible control flow.
//
// Exceptions (rather than abort) keep the library embeddable: a scheduler
// driving a long simulation campaign can catch a misconfigured experiment
// without taking the process down.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace commsched {

/// Error thrown when a CS_CHECK contract is violated.
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// Error thrown for invalid user-supplied configuration.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::string& what) : std::invalid_argument(what) {}
};

namespace detail {

[[noreturn]] void ThrowContractError(std::string_view expr, std::string_view file, int line,
                                     const std::string& message);

// Builds the optional message from streamable arguments.
template <typename... Args>
std::string BuildMessage(const Args&... args) {
  std::ostringstream oss;
  ((oss << args), ...);  // comma fold: an empty pack is void(), not a bare `oss;`
  return oss.str();
}

}  // namespace detail
}  // namespace commsched

#define CS_CHECK(cond, ...)                                                       \
  do {                                                                            \
    if (!(cond)) {                                                                \
      ::commsched::detail::ThrowContractError(#cond, __FILE__, __LINE__,          \
                                              ::commsched::detail::BuildMessage(__VA_ARGS__)); \
    }                                                                             \
  } while (false)

#ifdef NDEBUG
#define CS_DCHECK(cond, ...) \
  do {                       \
  } while (false)
#else
#define CS_DCHECK(cond, ...) CS_CHECK(cond, __VA_ARGS__)
#endif

#define CS_UNREACHABLE(msg)                                                      \
  ::commsched::detail::ThrowContractError("unreachable", __FILE__, __LINE__, msg)
