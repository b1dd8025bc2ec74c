/**
 * @file
 * The paper's simulated configurations (Table 3) and the sweep points
 * of Figures 5-7, expressed as MachineParams factories.
 */

#ifndef ZBP_SIM_CONFIGS_HH
#define ZBP_SIM_CONFIGS_HH

#include "zbp/core/params.hh"

namespace zbp::sim
{

/**
 * Table 3 configuration 1 — "No BTB2": BTBP 768 (128 x 6), BTB1 4k
 * (1k x 4), BTB2 disabled.  (Table 3 prints "128 x 8" for this row's
 * BTBP; the text and every other row say 768 = 128 x 6, so we use
 * 128 x 6 throughout and note the discrepancy here.)
 */
core::MachineParams configNoBtb2();

/** Table 3 configuration 2 — "BTB2 enabled": + 24k BTB2 (4k x 6). */
core::MachineParams configBtb2();

/** Table 3 configuration 3 — "Unrealistically large BTB1": BTB1 grown
 * to 24k (4k x 6) at unchanged (unrealistic) latency, no BTB2. */
core::MachineParams configLargeBtb1();

/** configBtb2 with the BTB2 resized to @p rows x @p ways (Figure 5). */
core::MachineParams configBtb2Sized(std::uint32_t rows,
                                    std::uint32_t ways);

/** configBtb2 with the BTB1-miss definition changed to @p searches
 * fruitless searches (Figure 6). */
core::MachineParams configMissLimit(unsigned searches);

/** configBtb2 with @p n BTB2 search trackers (Figure 7). */
core::MachineParams configTrackers(unsigned n);

} // namespace zbp::sim

#endif // ZBP_SIM_CONFIGS_HH
