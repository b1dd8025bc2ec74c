#include "zbp/sim/configs.hh"

namespace zbp::sim
{

core::MachineParams
configNoBtb2()
{
    core::MachineParams p;
    p.btb2Enabled = false;
    return p;
}

core::MachineParams
configBtb2()
{
    return core::MachineParams{}; // defaults are Table 3 row 2
}

core::MachineParams
configLargeBtb1()
{
    core::MachineParams p;
    p.btb2Enabled = false;
    p.btb1.rows = 4096;
    p.btb1.ways = 6; // 24k branches at BTB1 latency
    return p;
}

core::MachineParams
configBtb2Sized(std::uint32_t rows, std::uint32_t ways)
{
    core::MachineParams p;
    p.btb2.rows = rows;
    p.btb2.ways = ways;
    return p;
}

core::MachineParams
configMissLimit(unsigned searches)
{
    core::MachineParams p;
    p.search.missSearchLimit = searches;
    return p;
}

core::MachineParams
configTrackers(unsigned n)
{
    core::MachineParams p;
    p.engine.numTrackers = n;
    return p;
}

} // namespace zbp::sim
