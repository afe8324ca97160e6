#include <gtest/gtest.h>

#include "cmem/cmem.hh"
#include "core/timing.hh"
#include "mem/node_memory.hh"
#include "mem/row_store.hh"
#include "rv32/assembler.hh"

using namespace maicc;
using namespace maicc::rv32;

namespace
{

struct TimingHarness
{
    explicit TimingHarness(Program p, CoreConfig cfg = CoreConfig{})
        : prog(std::move(p)), nodeMem(cmem, &ext),
          model(prog, nodeMem, &cmem, &rows, cfg)
    {
    }

    CoreRunStats run() { return model.run(); }

    Program prog;
    CMem cmem;
    FlatMemory ext;
    RowStore rows;
    NodeMemory nodeMem;
    CoreTimingModel model;
};

} // namespace

TEST(CoreTiming, IndependentAluRunsAtIpcOne)
{
    Assembler a;
    for (int i = 0; i < 100; ++i)
        a.addi(static_cast<Reg>(5 + (i % 8)), zero, i);
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    EXPECT_EQ(st.insts, 101u);
    // 1 issue per cycle plus a couple of cycles of drain.
    EXPECT_LE(st.cycles, 105u);
    EXPECT_GE(st.cycles, 101u);
    EXPECT_GT(st.ipc(), 0.95);
}

TEST(CoreTiming, LoadUseStallsOneExtraCycle)
{
    Assembler a;
    a.li(t0, 0x40);
    a.lw(t1, t0, 0);
    a.add(t2, t1, t1); // load-use dependence
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    EXPECT_GT(st.stallRaw, 0u);
}

TEST(CoreTiming, DividerIsUnpipelined)
{
    CoreConfig cfg;
    Assembler a;
    a.li(t0, 100);
    a.li(t1, 3);
    a.div(t2, t0, t1);
    a.div(t3, t0, t1); // structural on the divider
    a.ecall();
    TimingHarness h(a.finish(), cfg);
    auto st = h.run();
    EXPECT_GE(st.stallStructural, cfg.divLatency - 2);
    EXPECT_GE(st.cycles, 2 * cfg.divLatency);
}

TEST(CoreTiming, TakenBranchPaysPenalty)
{
    CoreConfig cfg;
    // 10-iteration loop: 9 taken back-edges.
    Assembler a;
    a.li(t0, 10);
    auto loop = a.newLabel();
    a.bind(loop);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    a.ecall();
    TimingHarness h(a.finish(), cfg);
    auto st = h.run();
    EXPECT_EQ(st.branchPenaltyCycles, 9 * cfg.branchPenalty);
}

TEST(CoreTiming, CMemRunsUnderTheShadowOfThePipeline)
{
    // A MAC.C followed by independent ALU work: the ALU work
    // executes during the 64-cycle MAC.
    Assembler a;
    a.li(t2, cmemDesc(1, 0));
    a.li(t3, cmemDesc(1, 8));
    a.maccC(a0, t2, t3, 8);
    for (int i = 0; i < 40; ++i)
        a.addi(t4, zero, i);
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    // Everything fits inside ~MAC latency + small overhead.
    EXPECT_LT(st.cycles, 64u + 20u);
    EXPECT_EQ(st.cmemInsts, 1u);
    EXPECT_EQ(st.cmemBusyCycles, 64u);
}

TEST(CoreTiming, DependentMacResultWaitsForWriteback)
{
    Assembler a;
    a.li(t2, cmemDesc(1, 0));
    a.li(t3, cmemDesc(1, 8));
    a.maccC(a0, t2, t3, 8);
    a.add(a1, a0, a0); // RAW on the MAC result
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    EXPECT_GE(st.cycles, 64u);
    EXPECT_GE(st.stallRaw, 55u);
}

TEST(CoreTiming, QueueZeroBlocksAtIssue)
{
    // Two MACs on the SAME slice: the second cannot start until the
    // first finishes. With no issue queue it blocks in ID, stalling
    // the independent ALU work behind it; with a queue it parks and
    // the ALU work proceeds.
    auto make = [] {
        Assembler a;
        a.li(t2, cmemDesc(1, 0));
        a.li(t3, cmemDesc(1, 8));
        a.maccC(a0, t2, t3, 8);
        a.li(t3, cmemDesc(1, 16));
        a.maccC(a1, t2, t3, 8);
        for (int i = 0; i < 200; ++i)
            a.addi(t4, zero, i); // independent work
        a.ecall();
        return a.finish();
    };
    CoreConfig q0;
    q0.cmemQueueSize = 0;
    CoreConfig q2;
    q2.cmemQueueSize = 2;
    TimingHarness h0(make(), q0);
    TimingHarness h2(make(), q2);
    auto s0 = h0.run();
    auto s2 = h2.run();
    EXPECT_LT(s2.cycles, s0.cycles);
    EXPECT_GT(s0.stallQueueFull, 0u);
}

TEST(CoreTiming, SlicesExecuteInParallel)
{
    // Seven MACs in seven different slices with a deep queue:
    // near-complete overlap (paper §3.2: operations in different
    // slices do not interfere).
    Assembler a;
    for (unsigned sl = 1; sl <= 7; ++sl) {
        a.li(t2, cmemDesc(sl, 0));
        a.li(t3, cmemDesc(sl, 8));
        a.maccC(static_cast<Reg>(10 + sl - 1), t2, t3, 8);
    }
    a.ecall();
    CoreConfig cfg;
    cfg.cmemQueueSize = 4;
    cfg.wbPorts = 2;
    TimingHarness h(a.finish(), cfg);
    auto st = h.run();
    // Serial execution would be ~7*64 = 448 cycles.
    EXPECT_LT(st.cycles, 160u);
    EXPECT_EQ(st.cmemBusyCycles, 7u * 64u);
}

TEST(CoreTiming, SameSliceMacsSerialize)
{
    Assembler a;
    a.li(t2, cmemDesc(1, 0));
    a.li(t3, cmemDesc(1, 8));
    a.maccC(a0, t2, t3, 8);
    a.li(t3, cmemDesc(1, 16));
    a.maccC(a1, t2, t3, 8);
    a.ecall();
    CoreConfig cfg;
    cfg.cmemQueueSize = 4;
    TimingHarness h(a.finish(), cfg);
    auto st = h.run();
    EXPECT_GE(st.cycles, 128u);
}

TEST(CoreTiming, TwoWbPortsRelieveContention)
{
    // Two MACs in different slices complete nearly together; with
    // one WB port the second result retires a cycle later.
    auto make = [] {
        Assembler a;
        a.li(t2, cmemDesc(1, 0));
        a.li(t3, cmemDesc(1, 8));
        a.li(t4, cmemDesc(2, 0));
        a.li(t5, cmemDesc(2, 8));
        a.maccC(a0, t2, t3, 8);
        a.maccC(a1, t4, t5, 8);
        a.add(a2, a0, a1);
        a.ecall();
        return a.finish();
    };
    CoreConfig one;
    one.cmemQueueSize = 2;
    one.wbPorts = 1;
    CoreConfig two = one;
    two.wbPorts = 2;
    TimingHarness h1(make(), one);
    TimingHarness h2(make(), two);
    EXPECT_LE(h2.run().cycles, h1.run().cycles);
}

TEST(CoreTiming, BookingWindowGrowthKeepsLiveBookings)
{
    // The mul books write-back cycle t+3. The DRAM load behind it
    // books a cycle ~100,000 ahead, which grows the booking window
    // while the mul's booking is still live. The first add then
    // completes at t+3 too, finds the port taken and writes back
    // at t+4, so the second add (same rd) waits one WAW cycle. The
    // short-latency run never grows the window and agrees.
    for (Cycles remote : {Cycles(20), Cycles(100'000)}) {
        SCOPED_TRACE(remote);
        Assembler a;
        a.li(t0, static_cast<int32_t>(0x80000000u));
        a.mul(t1, zero, zero);
        a.lw(t2, t0, 0);
        a.add(t3, zero, zero);
        a.add(t3, zero, zero);
        a.ecall();
        CoreConfig cfg;
        cfg.remoteLatency = remote;
        TimingHarness h(a.finish(), cfg);
        auto st = h.run();
        EXPECT_EQ(st.stallWaw, 1u);
        EXPECT_EQ(st.remoteOps, 1u);
    }
}

TEST(CoreTiming, RemoteAccessIsNonBlocking)
{
    CoreConfig cfg;
    // A remote (DRAM) load followed by independent work: the work
    // proceeds under the remote latency (decoupled scoreboard).
    Assembler a;
    a.li(t0, static_cast<int32_t>(0x80000000));
    a.lw(t1, t0, 0);
    for (int i = 0; i < 15; ++i)
        a.addi(t2, zero, i);
    a.add(t3, t1, t1);
    a.ecall();
    TimingHarness h(a.finish(), cfg);
    auto st = h.run();
    EXPECT_EQ(st.remoteOps, 1u);
    // Total well under serialized (remoteLatency + 15).
    EXPECT_LT(st.cycles, cfg.remoteLatency + 15u + 10u);
}

TEST(CoreTiming, RunCoversInFlightRemoteRowFills)
{
    // A program that halts right after a LoadRow.RC: the remote
    // round trip is still in flight when the pipeline drains, and
    // the run must not end before the row lands (the epilogue folds
    // sliceDataReady, not just sliceFree).
    CoreConfig cfg;
    Assembler a;
    a.li(t0, static_cast<int32_t>(0x40000000)); // remote row addr
    a.li(t1, cmemDesc(2, 0));
    a.loadRowRC(t0, t1);
    a.ecall();
    TimingHarness h(a.finish(), cfg);
    auto st = h.run();
    EXPECT_GE(st.cycles, cfg.remoteLatency + CMem::rowXferCycles());
}

TEST(CoreTiming, SetMaskIsNotArrayBusyTime)
{
    // SetMask.C is a 1-cycle CSR write (Table 2): it must not be
    // charged to cmemBusyCycles or occupy an array bank, or the
    // Fig. 9 utilization breakdown over-reports array activity.
    Assembler a;
    a.li(t0, 1);    // slice 1
    a.li(t1, 0xFF); // mask value
    a.setMaskC(t0, t1);
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    EXPECT_EQ(st.cmemInsts, 1u);
    EXPECT_EQ(st.cmemBusyCycles, 0u);
}

TEST(CoreTiming, BusyBreakdownCountsOnlyArrayOps)
{
    // Fig. 9-style breakdown: a masked MAC sequence. The MAC is 64
    // array cycles; the SetMask configuring it adds none.
    Assembler a;
    a.li(t0, 1);
    a.li(t1, 0x0F);
    a.setMaskC(t0, t1);
    a.li(t2, cmemDesc(1, 0));
    a.li(t3, cmemDesc(1, 8));
    a.maccC(a0, t2, t3, 8);
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    EXPECT_EQ(st.cmemInsts, 2u);
    EXPECT_EQ(st.cmemBusyCycles, 64u);
}

TEST(CoreTiming, StatsAreConsistent)
{
    Assembler a;
    a.li(t0, 5);
    a.sw(t0, zero, 16);
    a.lw(t1, zero, 16);
    a.ecall();
    TimingHarness h(a.finish());
    auto st = h.run();
    EXPECT_EQ(st.insts, 4u);
    EXPECT_EQ(st.localMemOps, 2u);
    EXPECT_EQ(st.remoteOps, 0u);
    EXPECT_GT(st.cycles, 0u);
}

TEST(CoreTimingDeath, PcPastTheProgramEndPanics)
{
    // The timing loop fetches from its own decoded copy of the
    // program; running off its end must still panic.
    Assembler a;
    a.addi(t0, t0, 1);
    TimingHarness h(a.finish());
    EXPECT_DEATH(h.run(), "pc 0x00000004 is past the program end");
}
