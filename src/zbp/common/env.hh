/**
 * @file
 * The one reader of ZBP_* environment settings.  A numeric setting is
 * parsed whole (no trailing junk, no NaN or infinity, in range for its
 * type); a value the caller's check rejects warns once and falls back
 * to the default, so a sweep of many batches does not repeat itself.
 */

#ifndef ZBP_COMMON_ENV_HH
#define ZBP_COMMON_ENV_HH

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>

#include "zbp/common/log.hh"

namespace zbp
{

/** Parse all of @p s into @p v: a base-10 integer that fits T, or a
 * finite decimal for a floating-point T. */
template <typename T>
bool
parseNumber(const char *s, T &v)
{
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        const double d = std::strtod(s, &end);
        if (end == s || *end != '\0' || errno != 0 || !std::isfinite(d))
            return false;
        v = static_cast<T>(d);
        return true;
    } else {
        const long long n = std::strtoll(s, &end, 10);
        if (end == s || *end != '\0' || errno != 0 ||
            !std::in_range<T>(n))
            return false;
        v = static_cast<T>(n);
        return true;
    }
}

/** The value of env var @p var parsed by @p parse(s, v), or @p dflt
 * when unset, empty or rejected (warning once: each caller's lambda
 * instantiates its own flag). */
template <typename T, typename ParseFn>
T
envSetting(const char *var, T dflt, ParseFn &&parse)
{
    const char *s = std::getenv(var);
    if (s == nullptr || *s == '\0')
        return dflt;
    T v = dflt;
    if (!parse(s, v)) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ", var, " '", s, "'");
        return dflt;
    }
    return v;
}

/** The text of env var @p var; empty when unset. */
inline std::string
envString(const char *var)
{
    const char *s = std::getenv(var);
    return s == nullptr ? std::string() : std::string(s);
}

} // namespace zbp

#endif // ZBP_COMMON_ENV_HH
