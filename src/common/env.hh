/**
 * @file
 * Strict decimal parsing, shared by the DIRSIM_* configuration knobs
 * (sim/suite.hh, sim/simulator.hh, sim/runner.hh), the example CLIs'
 * numeric operands and the HTTP Content-Length header.
 */

#ifndef DIRSIM_COMMON_ENV_HH
#define DIRSIM_COMMON_ENV_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace dirsim
{

/**
 * Parse @p text as a decimal number no larger than @p max. Only
 * digits are accepted: no sign, no space, no base prefix, no
 * trailing characters. (std::stoull and strtoull skip leading space,
 * wrap "-1" to 2^64-1 and stop at the first non-digit.)
 *
 * @param what names the value in the error, e.g. "--jobs"
 * @throws UsageError when @p text is not a number or exceeds @p max
 */
std::uint64_t parseDecimal(
    std::string_view text, std::string_view what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Raw value of @p name; nullopt when unset or empty. */
std::optional<std::string> envString(const char *name);

/**
 * Unsigned integer override: @p fallback when @p name is unset or
 * empty, its parseDecimal() value otherwise.
 *
 * @throws UsageError when the value is not a number
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** envU64() narrowed to unsigned; rejects values that do not fit. */
unsigned envUnsigned(const char *name, unsigned fallback);

} // namespace dirsim

#endif // DIRSIM_COMMON_ENV_HH
