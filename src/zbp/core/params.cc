/**
 * @file
 * MachineParams::validate() — the configuration boundary check.
 *
 * Every table constructor in the model guards its own geometry with
 * ZBP_ASSERT, which aborts the process; a sweep over user-supplied
 * configurations (machine.cfg files, JSONL-driven reruns) must instead
 * get a catchable, descriptive error before any structure is built.
 */

#include "zbp/core/params.hh"

#include <stdexcept>
#include <string>

namespace zbp::core
{

namespace
{

[[noreturn]] void
reject(const std::string &what)
{
    throw std::invalid_argument("bad machine configuration: " + what);
}

void
checkBtb(const char *name, const btb::BtbConfig &c)
{
    const std::string n(name);
    if (c.rows == 0 || !isPowerOf2(c.rows))
        reject(n + ".rows must be a non-zero power of two, got " +
               std::to_string(c.rows));
    if (c.ways == 0)
        reject(n + ".ways must be at least 1");
    if (c.ways > btb::kMaxBtbWays)
        reject(n + ".ways " + std::to_string(c.ways) + " exceeds the " +
               "supported maximum of " + std::to_string(btb::kMaxBtbWays));
    if (c.rowBytes == 0 || !isPowerOf2(c.rowBytes))
        reject(n + ".rowBytes must be a non-zero power of two, got " +
               std::to_string(c.rowBytes));
    if (c.tagBits < 1 || c.tagBits > 58)
        reject(n + ".tagBits must be in [1, 58], got " +
               std::to_string(c.tagBits));
}

void
checkPow2(const char *name, std::uint32_t v)
{
    if (v == 0 || !isPowerOf2(v))
        reject(std::string(name) + " must be a non-zero power of two, "
               "got " + std::to_string(v));
}

void
checkNonZero(const char *name, std::uint64_t v)
{
    if (v == 0)
        reject(std::string(name) + " must be non-zero");
}

void
checkCache(const char *name, const cache::ICacheParams &c)
{
    const std::string n(name);
    if (c.lineBytes == 0 || !isPowerOf2(c.lineBytes))
        reject(n + ".lineBytes must be a non-zero power of two, got " +
               std::to_string(c.lineBytes));
    if (c.ways == 0)
        reject(n + ".ways must be at least 1");
    if (c.sizeBytes == 0 || c.sizeBytes % (c.lineBytes * c.ways) != 0)
        reject(n + ".sizeBytes must be a non-zero multiple of " +
               "lineBytes x ways, got " + std::to_string(c.sizeBytes));
}

void
checkProb(const char *name, double p)
{
    if (!(p >= 0.0 && p <= 1.0))
        reject(std::string(name) + " must be a probability in [0, 1], "
               "got " + std::to_string(p));
}

} // namespace

void
MachineParams::validate() const
{
    checkBtb("btb1", btb1);
    checkBtb("btbp", btbp);
    checkBtb("btb2", btb2);
    if (btb2Enabled && btb2.rowBytes != 32 && btb2.rowBytes != 64 &&
        btb2.rowBytes != 128) {
        reject("btb2.rowBytes must be 32, 64 or 128 when the BTB2 "
               "engine is enabled, got " + std::to_string(btb2.rowBytes));
    }

    checkPow2("phtEntries", phtEntries);
    checkPow2("ctbEntries", ctbEntries);
    checkPow2("surpriseBhtEntries", surpriseBhtEntries);

    checkNonZero("search.missSearchLimit", search.missSearchLimit);
    checkNonZero("search.maxNotTakenPerRow", search.maxNotTakenPerRow);
    checkNonZero("search.maxQueuedPredictions",
                 search.maxQueuedPredictions);
    checkNonZero("search.seqBurst", search.seqBurst);

    checkNonZero("engine.numTrackers", engine.numTrackers);
    checkNonZero("engine.partialSectors", engine.partialSectors);
    checkNonZero("engine.pipeDepth", engine.pipeDepth);
    checkNonZero("engine.rowReadInterval", engine.rowReadInterval);
    checkNonZero("engine.maxChainedBlocks", engine.maxChainedBlocks);

    if (sot.ways == 0 || sot.entries == 0 || sot.entries % sot.ways != 0)
        reject("sot.entries must be a non-zero multiple of sot.ways, "
               "got " + std::to_string(sot.entries) + " entries x " +
               std::to_string(sot.ways) + " ways");
    if (!isPowerOf2(sot.entries / sot.ways))
        reject("sot sets (entries / ways) must be a power of two, got " +
               std::to_string(sot.entries / sot.ways));

    checkCache("icache", icache);
    checkCache("dcache", dcache);

    checkNonZero("cpu.decodeWidth", cpu.decodeWidth);
    checkNonZero("cpu.fetchBytesPerCycle", cpu.fetchBytesPerCycle);
    checkNonZero("cpu.fetchBufferInsts", cpu.fetchBufferInsts);
    checkProb("cpu.dataStallProb", cpu.dataStallProb);

    if (cmp.cores < 1 || cmp.cores > 64)
        reject("cmp.cores must be in [1, 64], got " +
               std::to_string(cmp.cores));
    checkPow2("cmp.btb2Banks", cmp.btb2Banks);
    if (cmp.btb2Banks > btb2.rows)
        reject("cmp.btb2Banks " + std::to_string(cmp.btb2Banks) +
               " exceeds btb2.rows " + std::to_string(btb2.rows) +
               " (cannot bank finer than one row per bank)");
    checkNonZero("cmp.arbQueueDepth", cmp.arbQueueDepth);
    checkNonZero("cmp.stepInsts", cmp.stepInsts);
    if (cmp.sharedL2i)
        checkCache("cmp.l2i", cmp.l2i);
}

} // namespace zbp::core
