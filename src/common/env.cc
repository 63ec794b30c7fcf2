#include "common/env.hh"

#include <charconv>
#include <cstdlib>

#include "common/logging.hh"

namespace dirsim
{

std::uint64_t
parseDecimal(std::string_view text, std::string_view what,
             std::uint64_t max)
{
    fatalIf(text.empty()
                || text.find_first_not_of("0123456789")
                    != std::string_view::npos,
            what, " '", text, "' is not a number");
    // Only digits remain, so from_chars fails only on overflow.
    std::uint64_t value = 0;
    const std::errc error =
        std::from_chars(text.data(), text.data() + text.size(), value).ec;
    fatalIf(error != std::errc{} || value > max, what, " ", text,
            " is out of range (max ", max, ")");
    return value;
}

std::optional<std::string>
envString(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return std::nullopt;
    return std::string(value);
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const auto value = envString(name);
    if (!value)
        return fallback;
    return parseDecimal(*value,
                        std::string("environment variable ") + name);
}

unsigned
envUnsigned(const char *name, unsigned fallback)
{
    const auto value = envString(name);
    if (!value)
        return fallback;
    return static_cast<unsigned>(
        parseDecimal(*value, std::string("environment variable ") + name,
                     std::numeric_limits<unsigned>::max()));
}

} // namespace dirsim
