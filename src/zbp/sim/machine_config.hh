/**
 * @file
 * Plain-text machine configuration: "section.key = value" lines parsed
 * into a MachineParams, so experiments can be scripted without
 * recompiling.  The keys are core::MachineParams::fields()' names, so
 * every settable field has one (cmp.* too, which only sim::CmpModel
 * reads).  '#' starts a comment; unknown keys are errors (typos in
 * sweep scripts must not silently run the default machine).
 *
 * Example:
 *     # half-size second level, eDRAM cadence
 *     btb2.rows = 2048
 *     engine.rowReadInterval = 2
 *     search.missSearchLimit = 4
 *     btb2Enabled = true
 */

#ifndef ZBP_SIM_MACHINE_CONFIG_HH
#define ZBP_SIM_MACHINE_CONFIG_HH

#include <string>

#include "zbp/core/params.hh"

namespace zbp::sim
{

/** Result of a parse attempt. */
struct ParseResult
{
    bool ok = true;
    std::string error;   ///< first problem found (empty when ok)
    unsigned line = 0;   ///< 1-based line of the problem
};

/**
 * Apply "section.key = value" directives from @p text to @p params.
 * On error, @p params is left in a partially-updated state and the
 * result identifies the offending line.
 */
ParseResult applyConfigText(const std::string &text,
                            core::MachineParams &params);

/** Load a configuration file over @p params. */
ParseResult applyConfigFile(const std::string &path,
                            core::MachineParams &params);

/** All recognized keys, one per line in fields() order (for --help
 * style output). */
std::string configKeyList();

} // namespace zbp::sim

#endif // ZBP_SIM_MACHINE_CONFIG_HH
