/**
 * @file
 * Gang-chunked sweeps, under their sim:: names: a gang is N machine
 * configurations simulated over one trace in chunk-interleaved order,
 * run as one runner::GangJob by the one engine (see
 * zbp/runner/gang_job.hh).
 */

#ifndef ZBP_SIM_GANG_RUNNER_HH
#define ZBP_SIM_GANG_RUNNER_HH

#include "zbp/runner/gang_job.hh"

namespace zbp::sim
{

using GangConfig = runner::GangConfig;
using runner::runGangs;

/** The engine's walk window, for perfbench's re-driven gang walk. */
inline std::size_t
gangChunkFromEnv()
{
    return runner::RunPolicy{}.chunk;
}

} // namespace zbp::sim

#endif // ZBP_SIM_GANG_RUNNER_HH
