/**
 * @file
 * Microarchitectural parameters of the lightweight MAICC core
 * (paper §3.1, §3.3): a 5-stage in-order-issue, out-of-order-
 * completion pipeline with a scoreboard, a small FIFO issue queue
 * in front of the CMem, and 1 or 2 register-file write-back ports.
 * The Table 5 sweep varies cmemQueueSize x wbPorts x static
 * scheduling.
 */

#ifndef MAICC_CORE_CORE_CONFIG_HH
#define MAICC_CORE_CORE_CONFIG_HH

#include "common/types.hh"

namespace maicc
{

struct CoreConfig
{
    /** Entries in the CMem FIFO issue queue (0, 1, 2, or 4). */
    unsigned cmemQueueSize = 2;

    /** Register-file write-back ports (1 or 2). */
    unsigned wbPorts = 1;

    /** Pipelined multiplier latency. */
    Cycles mulLatency = 3;

    /** Unpipelined idiv latency (scoreboard-managed). */
    Cycles divLatency = 16;

    /** Local load-use latency (dmem / slice-0 window). */
    Cycles loadLatency = 2;

    /**
     * Round-trip latency charged for remote / DRAM accesses when
     * the node is simulated standalone (no NoC attached). Remote
     * requests are scoreboard-managed and do not block the
     * pipeline.
     */
    Cycles remoteLatency = 20;

    /** Taken-branch redirect penalty (fetch + decode flush). */
    Cycles branchPenalty = 2;
};

/** Cycle-level result of running a program on the core model. */
struct CoreRunStats
{
    Cycles cycles = 0;            ///< total run time
    uint64_t insts = 0;           ///< dynamic instructions retired
    uint64_t cmemInsts = 0;       ///< CMem-extension instructions
    Cycles cmemBusyCycles = 0;    ///< cycles any CMem slice active
    Cycles stallRaw = 0;          ///< issue stall: operand not ready
    Cycles stallWaw = 0;          ///< issue stall: WAW on dest
    Cycles stallQueueFull = 0;    ///< issue stall: CMem queue full
    Cycles stallStructural = 0;   ///< issue stall: div/mem port busy
    Cycles branchPenaltyCycles = 0;
    uint64_t localMemOps = 0;     ///< dmem / slice-0 accesses
    uint64_t remoteOps = 0;       ///< remote-core / DRAM accesses

    double
    ipc() const
    {
        return cycles ? static_cast<double>(insts) / cycles : 0.0;
    }
};

} // namespace maicc

#endif // MAICC_CORE_CORE_CONFIG_HH
