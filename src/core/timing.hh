/**
 * @file
 * Cycle-level timing model of the MAICC node pipeline.
 *
 * The model wraps the functional rv32::Executor in an
 * execute-at-issue style: architectural values are always exact,
 * while issue/execute/write-back times are computed from the
 * scoreboard and resource-availability state below.
 *
 * Modelled mechanisms (all measured by Table 5):
 *  - in-order issue, one instruction per cycle from the I-cache;
 *  - scoreboard RAW/WAW interlocks with a bypass network for
 *    single-cycle units (CMem results return through the register
 *    file, so dependants wait for their write-back);
 *  - a FIFO issue queue of configurable depth in front of the CMem
 *    (depth 0 = block in ID while the CMem is busy);
 *  - per-slice CMem occupancy: slices execute in parallel, Move.C
 *    occupies both source and destination slices;
 *  - 1 or 2 register-file write-back ports arbitrated per cycle;
 *  - an unpipelined divider and a single local memory port;
 *  - scoreboard-managed (non-blocking) remote accesses with a
 *    configurable round-trip latency when no NoC is attached.
 *
 * Concurrency model (DESIGN.md): a CoreTimingModel is *node-
 * private* state — every mutable field lives in the instance and
 * it holds no references to mesh-shared structures (its CMem,
 * memory, and row port belong to the same node). Instances are
 * therefore thread-compatible: parallel node stepping may run one
 * shard's models concurrently with another's as long as each
 * instance stays confined to one shard between barriers. The
 * returned CoreRunStats are shard-private and merged by the owner
 * in shard order.
 */

#ifndef MAICC_CORE_TIMING_HH
#define MAICC_CORE_TIMING_HH

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "common/sim_component.hh"
#include "core/core_config.hh"
#include "rv32/executor.hh"

namespace maicc
{

/**
 * Timing simulation of one node program. Construct with the same
 * collaborators as rv32::Executor plus a CoreConfig, then run().
 */
class CoreTimingModel : public SimComponent
{
  public:
    CoreTimingModel(const rv32::Program &program, NodeMemory &mem,
                    CMem *cmem, RowStore *rows,
                    const CoreConfig &cfg);

    /** Run to ecall/ebreak; @return the cycle-level statistics. */
    CoreRunStats run(uint64_t max_insts = 200'000'000);

    /** Architectural state after (or during) the run. */
    const rv32::Executor &executor() const { return exec; }

    // The commit-trace sink is inherited: SimComponent::setTrace;
    // run() emits one InstRecord per retired instruction when set.

    /**
     * Clear the scoreboard / resource-availability state so the
     * next run() sees a cold pipeline (the executor's
     * architectural state is NOT touched — rebuild or reload the
     * program for a fully fresh run).
     */
    void reset() override;

    /** Publish the last run's CoreRunStats into stats(). */
    void recordStats() override;

  private:
    /** The timing class of an instruction: which unit it uses. */
    enum class Unit : uint8_t { Alu, CMem, Mem, Div, Mul };

    /**
     * One program instruction, decoded once at construction into a
     * 12-byte record: the fields every execution step reads (the
     * timing loop executes the record itself), the CMem precision,
     * and what the timing loop needs of it. The program is
     * borrowed, like the executor's, and must not change while the
     * model lives.
     */
    struct Decoded : rv32::InstFields
    {
        uint8_t cmemN = 0;
        Unit unit : 3 = Unit::Alu;
        bool readsRs1 : 1 = false;
        bool readsRs2 : 1 = false;
        bool writesRd : 1 = false;
        bool control : 1 = false;   ///< branch or jump
        bool immOffset : 1 = false; ///< memory address is rs1 + imm
    };
    static_assert(sizeof(Decoded) == 12);

    /** Book a write-back port at or after @p ready; @return slot. */
    Cycles
    bookWbPort(Cycles ready)
    {
        // Common case: @p ready is inside the window and has a free
        // port. Anything else (a full cycle, a booking past the
        // window's end) takes the out-of-line search.
        if (ready - wbBase < wbSlots.size()) {
            WbSlot &s = wbSlots[ready & (wbSlots.size() - 1)];
            unsigned booked = s.cycle == ready ? s.booked : 0;
            if (booked < cfg.wbPorts) {
                s = {ready, booked + 1};
                return ready;
            }
        }
        return bookWbPortSlow(ready);
    }
    Cycles bookWbPortSlow(Cycles ready);

    /**
     * Slide the booking window's start up to @p front, the in-order
     * issue front: no later instruction completes before it.
     */
    void advanceWbWindow(Cycles front) { wbBase = std::max(wbBase, front); }

    const CoreConfig cfg;
    rv32::Executor exec;
    CMem *cmem;
    std::vector<Decoded> decoded; ///< per instruction, by pc / 4

    // Resource availability state, all in absolute cycles.
    std::array<Cycles, 32> regReady{};  ///< bypass-ready time
    std::array<Cycles, 32> regWbDone{}; ///< write-back retired (WAW)
    std::vector<Cycles> sliceFree;    ///< per-CMem-slice busy-until
    /**
     * Per-slice time at which remotely loaded rows have landed
     * (LoadRow.RC round trip). LoadRow.RC itself only occupies the
     * slice port for a cycle, so row fetches pipeline; any later
     * compute op on the slice waits for the data.
     */
    std::vector<Cycles> sliceDataReady;
    /**
     * Write-back port occupancy per cycle. Ports are arbitrated at
     * completion time (not issue time), so a long-latency CMem
     * result does not block earlier-completing ALU write-backs.
     *
     * A sliding window over cycles [wbBase, wbBase + size): cycle c
     * books in slot c % size (size a power of two), which counts for
     * c only while it is tagged with c; any other tag is a cycle
     * that has left the window, so sliding the window clears
     * nothing. The window doubles whenever a booking lands past its
     * end, so any horizon (a remote latency of 100,000 cycles, say)
     * fits.
     */
    struct WbSlot
    {
        Cycles cycle = 0;    ///< the cycle `booked` counts for
        unsigned booked = 0; ///< ports booked at `cycle`
    };
    std::vector<WbSlot> wbSlots;
    Cycles wbBase = 0; ///< earliest cycle that can still be booked
    std::deque<Cycles> cmemDispatch;  ///< recent CMem dispatch times
    Cycles lastCMemDispatch = 0;
    Cycles divFree = 0;
    Cycles memPortFree = 0;
    Cycles fetchReady = 0;

    CoreRunStats runStats;
};

} // namespace maicc

#endif // MAICC_CORE_TIMING_HH
