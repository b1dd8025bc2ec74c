/**
 * @file
 * Lightweight named-statistics registry used by every simulation
 * component: scalar counters and ratios (formulas evaluated at dump
 * time), grouped per component and dumpable as text.
 */

#ifndef ZBP_STATS_STATS_HH
#define ZBP_STATS_STATS_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "zbp/common/log.hh"

namespace zbp::stats
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t n) { val += n; return *this; }

    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/**
 * A per-component group of named stats.  Components hold their own
 * Counter members for speed and register them here by reference for
 * dumping; groups may also register derived values (lambdas).
 */
class Group
{
  public:
    explicit Group(std::string name_) : groupName(std::move(name_)) {}

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    void
    add(const std::string &name, const Counter &c, std::string desc = "")
    {
        scalars.push_back({name, std::move(desc),
                           [&c] { return static_cast<double>(c.value()); }});
    }

    void
    addDerived(const std::string &name, std::function<double()> fn,
               std::string desc = "")
    {
        scalars.push_back({name, std::move(desc), std::move(fn)});
    }

    const std::string &name() const { return groupName; }

    /**
     * Append "group.stat value  # desc" lines to @p out.  Lines size to
     * their content (a long name or description is never truncated),
     * and a non-finite derived value — a ratio whose denominator is
     * still zero, typically on an empty run — dumps as 0 rather than
     * "inf"/"nan", so dump output is always parseable.
     */
    void
    dump(std::string &out) const
    {
        char stack_buf[256];
        for (const auto &s : scalars) {
            const std::string label = groupName + "." + s.name;
            const double v = finiteOrZero(s.eval());
            const int need = std::snprintf(
                    stack_buf, sizeof(stack_buf), "%-48s %16.6g  # %s\n",
                    label.c_str(), v, s.desc.c_str());
            if (need < 0)
                continue; // encoding error: skip the line, keep dumping
            if (static_cast<std::size_t>(need) < sizeof(stack_buf)) {
                out += stack_buf;
                continue;
            }
            // Rare long line: render again into an exact-sized buffer.
            std::string line(static_cast<std::size_t>(need), '\0');
            std::snprintf(line.data(), line.size() + 1,
                          "%-48s %16.6g  # %s\n", label.c_str(), v,
                          s.desc.c_str());
            out += line;
        }
    }

    /** Look up a registered scalar by name (non-finite derived values
     * read as 0, matching dump()); panics if absent. */
    double
    value(const std::string &name) const
    {
        for (const auto &s : scalars)
            if (s.name == name)
                return finiteOrZero(s.eval());
        panic("stat '", name, "' not found in group '", groupName, "'");
    }

    bool
    has(const std::string &name) const
    {
        for (const auto &s : scalars)
            if (s.name == name)
                return true;
        return false;
    }

  private:
    struct Scalar
    {
        std::string name;
        std::string desc;
        std::function<double()> eval;
    };

    static double
    finiteOrZero(double v)
    {
        return std::isfinite(v) ? v : 0.0;
    }

    std::string groupName;
    std::vector<Scalar> scalars;
};

} // namespace zbp::stats

#endif // ZBP_STATS_STATS_HH
