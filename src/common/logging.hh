/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * dirsim is a library, so instead of aborting the process, panic() and
 * fatal() throw typed exceptions that callers (and tests) can observe:
 *
 *  - panic()  -> SimulationError subclass LogicError: an internal
 *               invariant was violated (a dirsim bug).
 *  - fatal()  -> SimulationError subclass UsageError: the caller
 *               supplied an impossible configuration or malformed
 *               input (the user's fault).
 *
 * Diagnostics that let execution continue are structured log events
 * (common/log.hh).
 */

#ifndef DIRSIM_COMMON_LOGGING_HH
#define DIRSIM_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace dirsim
{

/** Root of the dirsim error hierarchy. */
class SimulationError : public std::runtime_error
{
  public:
    explicit SimulationError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Thrown by panic(): an internal dirsim invariant failed. */
class LogicError : public SimulationError
{
  public:
    explicit LogicError(const std::string &what_arg)
        : SimulationError(what_arg)
    {}
};

/** Thrown by fatal(): bad configuration or malformed input. */
class UsageError : public SimulationError
{
  public:
    explicit UsageError(const std::string &what_arg)
        : SimulationError(what_arg)
    {}
};

namespace detail
{

/** Fold a parameter pack into one message string via operator<<. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Report an internal invariant violation.
 *
 * @param args stream-formatted message fragments
 * @throws LogicError always
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw LogicError(detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user/configuration error.
 *
 * @param args stream-formatted message fragments
 * @throws UsageError always
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw UsageError(detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * panic() unless a condition holds.
 *
 * @param condition the invariant that must be true
 * @param args stream-formatted message fragments
 */
template <typename... Args>
void
panicIfNot(bool condition, Args &&...args)
{
    if (!condition)
        panic(std::forward<Args>(args)...);
}

/**
 * fatal() if a condition holds.
 *
 * @param condition the user error to reject
 * @param args stream-formatted message fragments
 */
template <typename... Args>
void
fatalIf(bool condition, Args &&...args)
{
    if (condition)
        fatal(std::forward<Args>(args)...);
}

} // namespace dirsim

#endif // DIRSIM_COMMON_LOGGING_HH
