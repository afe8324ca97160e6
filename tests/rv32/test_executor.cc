#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cmem/cmem.hh"
#include "mem/node_memory.hh"
#include "rv32/assembler.hh"
#include "rv32/executor.hh"

using namespace maicc;
using namespace maicc::rv32;

namespace
{

/** Assemble, run to completion, return the executor for checks. */
struct Harness
{
    explicit Harness(Program p)
        : prog(std::move(p)), nodeMem(cmem, &ext),
          exec(prog, nodeMem, &cmem)
    {
    }

    void run() { exec.run(1'000'000); }

    Program prog;
    CMem cmem;
    FlatMemory ext;
    NodeMemory nodeMem;
    Executor exec;
};

} // namespace

TEST(Executor, ArithmeticBasics)
{
    Assembler a;
    a.li(t0, 40);
    a.li(t1, 2);
    a.add(t2, t0, t1);
    a.sub(t3, t0, t1);
    a.mul(t4, t0, t1);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 42u);
    EXPECT_EQ(h.exec.reg(t3), 38u);
    EXPECT_EQ(h.exec.reg(t4), 80u);
    EXPECT_TRUE(h.exec.halted());
}

TEST(Executor, X0IsHardwiredZero)
{
    Assembler a;
    a.li(t0, 99);
    a.add(zero, t0, t0);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(zero), 0u);
}

TEST(Executor, LiHandlesFullRange)
{
    for (int32_t v : {0, 1, -1, 2047, -2048, 2048, 0x7FFFFFFF,
                      (int32_t)0x80000000, 123456789, -123456789}) {
        Assembler a;
        a.li(t0, v);
        a.ecall();
        Harness h(a.finish());
        h.run();
        EXPECT_EQ(h.exec.reg(t0), static_cast<uint32_t>(v))
            << "v=" << v;
    }
}

TEST(Executor, LoopsAndBranches)
{
    // Sum 1..10 with a loop.
    Assembler a;
    a.li(t0, 10);
    a.li(t1, 0);
    auto loop = a.newLabel();
    a.bind(loop);
    a.add(t1, t1, t0);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t1), 55u);
}

TEST(Executor, SignedBranches)
{
    Assembler a;
    a.li(t0, -5);
    a.li(t1, 3);
    a.li(t2, 0);
    auto skip = a.newLabel();
    a.bge(t0, t1, skip);   // not taken: -5 < 3 signed
    a.li(t2, 1);
    a.bind(skip);
    a.li(t3, 0);
    auto skip2 = a.newLabel();
    a.bgeu(t0, t1, skip2); // taken: 0xFFFFFFFB > 3 unsigned
    a.li(t3, 1);
    a.bind(skip2);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 1u);
    EXPECT_EQ(h.exec.reg(t3), 0u);
}

TEST(Executor, LoadStoreLocalDmem)
{
    Assembler a;
    a.li(t0, 0x100);
    a.li(t1, -2);
    a.sw(t1, t0, 0);
    a.lw(t2, t0, 0);
    a.lb(t3, t0, 0);
    a.lbu(t4, t0, 0);
    a.lh(t5, t0, 0);
    a.lhu(t6, t0, 0);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 0xFFFFFFFEu);
    EXPECT_EQ(h.exec.reg(t3), 0xFFFFFFFEu); // lb sign-extends
    EXPECT_EQ(h.exec.reg(t4), 0xFEu);       // lbu zero-extends
    EXPECT_EQ(h.exec.reg(t5), 0xFFFFFFFEu);
    EXPECT_EQ(h.exec.reg(t6), 0xFFFEu);
}

TEST(Executor, DivRemEdgeCases)
{
    Assembler a;
    a.li(t0, -8);
    a.li(t1, 3);
    a.div(t2, t0, t1);  // -2 (toward zero)
    a.rem(t3, t0, t1);  // -2
    a.li(t4, 5);
    a.div(t5, t4, zero); // div by zero -> -1
    a.rem(t6, t4, zero); // rem by zero -> dividend
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(static_cast<int32_t>(h.exec.reg(t2)), -2);
    EXPECT_EQ(static_cast<int32_t>(h.exec.reg(t3)), -2);
    EXPECT_EQ(h.exec.reg(t5), 0xFFFFFFFFu);
    EXPECT_EQ(h.exec.reg(t6), 5u);
}

TEST(Executor, DivOverflow)
{
    Assembler a;
    a.li(t0, static_cast<int32_t>(0x80000000));
    a.li(t1, -1);
    a.div(t2, t0, t1);
    a.rem(t3, t0, t1);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 0x80000000u);
    EXPECT_EQ(h.exec.reg(t3), 0u);
}

TEST(Executor, MulhVariants)
{
    Assembler a;
    a.li(t0, -1);
    a.li(t1, -1);
    a.mulh(t2, t0, t1);   // (-1 * -1) >> 32 = 0
    a.mulhu(t3, t0, t1);  // (2^32-1)^2 >> 32 = 0xFFFFFFFE
    a.mulhsu(t4, t0, t1); // -1 * (2^32-1) >> 32 = 0xFFFFFFFF
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 0u);
    EXPECT_EQ(h.exec.reg(t3), 0xFFFFFFFEu);
    EXPECT_EQ(h.exec.reg(t4), 0xFFFFFFFFu);
}

TEST(Executor, JalrFunctionCall)
{
    Assembler a;
    auto func = a.newLabel();
    auto after = a.newLabel();
    a.li(a0, 5);
    a.jal(ra, func);
    a.j(after);
    a.bind(func);
    a.addi(a0, a0, 10);
    a.jalr(zero, ra, 0);
    a.bind(after);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(a0), 15u);
}

TEST(Executor, AmoAndLrSc)
{
    Assembler a;
    a.li(t0, 0x200);
    a.li(t1, 7);
    a.sw(t1, t0, 0);
    a.li(t2, 3);
    a.amoadd(t3, t0, t2);   // t3 = 7, mem = 10
    a.lrw(t4, t0);          // t4 = 10, reservation set
    a.addi(t4, t4, 1);
    a.scw(t5, t0, t4);      // success: t5 = 0, mem = 11
    a.scw(t6, t0, t4);      // reservation gone: t6 = 1
    a.lw(a0, t0, 0);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t3), 7u);
    EXPECT_EQ(h.exec.reg(t5), 0u);
    EXPECT_EQ(h.exec.reg(t6), 1u);
    EXPECT_EQ(h.exec.reg(a0), 11u);
}

TEST(Executor, Slice0WindowStoreLoad)
{
    // Stores to 0x1000.. land in CMem slice 0 vertically.
    Assembler a;
    a.li(t0, amap::slice0Base);
    a.li(t1, 0xAB);
    a.sb(t1, t0, 5);
    a.lbu(t2, t0, 5);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 0xABu);
    EXPECT_EQ(h.cmem.loadByte(5), 0xABu);
}

TEST(Executor, CMemMacViaInstructions)
{
    // Write two 4-element vectors through the slice-0 window,
    // Move.C them to slice 1, MAC.C, and check the register result.
    Assembler a;
    a.li(t0, amap::slice0Base);
    // Vector A = {2, 3, -4, 5} at slice0 bytes 0..3
    a.li(t1, 2);
    a.sb(t1, t0, 0);
    a.li(t1, 3);
    a.sb(t1, t0, 1);
    a.li(t1, -4);
    a.sb(t1, t0, 2);
    a.li(t1, 5);
    a.sb(t1, t0, 3);
    // Vector B = {6, -7, 8, 9} at slice0 bytes 256..259 (rows 8..15)
    a.li(t1, 6);
    a.sb(t1, t0, 256);
    a.li(t1, -7);
    a.sb(t1, t0, 257);
    a.li(t1, 8);
    a.sb(t1, t0, 258);
    a.li(t1, 9);
    a.sb(t1, t0, 259);
    // Move rows 0..7 (A) -> slice 1 row 0; rows 8..15 (B) -> row 8.
    a.li(t2, cmemDesc(0, 0));
    a.li(t3, cmemDesc(1, 0));
    a.moveC(t2, t3, 8);
    a.li(t2, cmemDesc(0, 8));
    a.li(t3, cmemDesc(1, 8));
    a.moveC(t2, t3, 8);
    // MAC.C
    a.li(t2, cmemDesc(1, 0));
    a.li(t3, cmemDesc(1, 8));
    a.maccC(a0, t2, t3, 8);
    a.ecall();
    Harness h(a.finish());
    h.run();
    // 2*6 + 3*(-7) + (-4)*8 + 5*9 = 12 - 21 - 32 + 45 = 4
    EXPECT_EQ(static_cast<int32_t>(h.exec.reg(a0)), 4);
}

TEST(Executor, SetMaskAndSetRowViaInstructions)
{
    Assembler a;
    a.li(t0, 1);         // slice 1
    a.li(t1, 0x03);      // enable 64 bit-lines
    a.setMaskC(t0, t1);
    a.li(t2, cmemDesc(1, 20));
    a.setRowC(t2, true);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.cmem.mask(1), 0x03);
    EXPECT_EQ(h.cmem.slice(1).readRow(20).popcount(), 256u);
}

TEST(Executor, HaltsOnEbreak)
{
    Assembler a;
    a.ebreak();
    Harness h(a.finish());
    h.run();
    EXPECT_TRUE(h.exec.halted());
    EXPECT_EQ(h.exec.instsRetired(), 1u);
}

TEST(Executor, ExternalMemoryFallThrough)
{
    Assembler a;
    a.li(t0, static_cast<int32_t>(amap::dramBase + 0x40));
    a.li(t1, 0x1234);
    a.sw(t1, t0, 0);
    a.lw(t2, t0, 0);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(t2), 0x1234u);
    EXPECT_EQ(h.ext.load(amap::dramBase + 0x40, 4), 0x1234u);
}

TEST(Executor, AllAmoVariants)
{
    // The full RV32A set: each AMO returns the old value and
    // applies its operation to memory.
    Assembler a;
    a.li(t0, 0x300);
    a.li(t1, 12);
    a.sw(t1, t0, 0);
    a.li(t2, 10);
    a.amoxor(a0, t0, t2);  // old 12, mem 12^10 = 6
    a.amoand(a1, t0, t2);  // old 6,  mem 6&10 = 2
    a.amoor(a2, t0, t2);   // old 2,  mem 2|10 = 10
    a.li(t2, -4);
    a.amomin(a3, t0, t2);  // old 10, mem min(10,-4) = -4
    a.li(t2, 3);
    a.amomax(a4, t0, t2);  // old -4, mem max(-4,3) = 3
    a.li(t2, -1);          // 0xFFFFFFFF unsigned max
    a.amominu(a5, t0, t2); // old 3,  mem minu(3,max) = 3
    a.amomaxu(a6, t0, t2); // old 3,  mem maxu(3,max) = 0xFFFFFFFF
    a.lw(a7, t0, 0);
    a.ecall();
    Harness h(a.finish());
    h.run();
    EXPECT_EQ(h.exec.reg(a0), 12u);
    EXPECT_EQ(h.exec.reg(a1), 6u);
    EXPECT_EQ(h.exec.reg(a2), 2u);
    EXPECT_EQ(h.exec.reg(a3), 10u);
    EXPECT_EQ(static_cast<int32_t>(h.exec.reg(a4)), -4);
    EXPECT_EQ(h.exec.reg(a5), 3u);
    EXPECT_EQ(h.exec.reg(a6), 3u);
    EXPECT_EQ(h.exec.reg(a7), 0xFFFFFFFFu);
}

namespace
{

/**
 * Stores, then loads of every width, around one base address, with
 * the bytes and register values they must leave. Every access's
 * offset from the base is in [-2, 0], so an access at the top of
 * the address space stays off the local window while its later
 * bytes wrap.
 */
struct ByteMapCase
{
    struct Load
    {
        Op op;
        int32_t imm;
        Reg rd;
        uint32_t want;
    };

    explicit ByteMapCase(Addr base)
    {
        struct Store
        {
            int32_t imm;
            unsigned bytes;
            uint32_t value;
        };
        const Store stores[] = {
            {-2, 4, 0x8899AABBu}, {0, 2, 0xC3D4u}, {-1, 1, 0xE5u}};
        Assembler a;
        a.li(t0, static_cast<int32_t>(base));
        for (const Store &st : stores) {
            a.li(t1, static_cast<int32_t>(st.value));
            if (st.bytes == 1)
                a.sb(t1, t0, st.imm);
            else if (st.bytes == 2)
                a.sh(t1, t0, st.imm);
            else
                a.sw(t1, t0, st.imm);
            // Byte i of an access lives at addr + i, mod 2^32.
            for (unsigned i = 0; i < st.bytes; ++i)
                bytes[base + st.imm + i] = uint8_t(st.value >> (8 * i));
        }
        const Reg dests[] = {a0, a1, a2, a3, a4, a5, a6, a7, s2, s3,
                             s4, s5, s6, s7, s8};
        size_t next_rd = 0;
        for (Op op : {Op::LB, Op::LBU, Op::LH, Op::LHU, Op::LW}) {
            for (int32_t imm : {-2, -1, 0}) {
                Reg rd = dests[next_rd++];
                switch (op) {
                  case Op::LB: a.lb(rd, t0, imm); break;
                  case Op::LBU: a.lbu(rd, t0, imm); break;
                  case Op::LH: a.lh(rd, t0, imm); break;
                  case Op::LHU: a.lhu(rd, t0, imm); break;
                  default: a.lw(rd, t0, imm); break;
                }
                loads.push_back({op, imm, rd, expected(op, base + imm)});
            }
        }
        a.ecall();
        prog = a.finish();
    }

    /** What load @p op at @p addr reads from the byte map. */
    uint32_t
    expected(Op op, Addr addr) const
    {
        unsigned width = op == Op::LW ? 4
            : (op == Op::LH || op == Op::LHU) ? 2 : 1;
        uint32_t v = 0;
        for (unsigned i = 0; i < width; ++i) {
            auto it = bytes.find(addr + i);
            if (it != bytes.end())
                v |= uint32_t(it->second) << (8 * i);
        }
        if (op == Op::LB)
            v = uint32_t(int32_t(int8_t(v)));
        if (op == Op::LH)
            v = uint32_t(int32_t(int16_t(v)));
        return v;
    }

    /** Run the case; @p peek reads a byte where the region under
     * test keeps it. */
    template <typename Peek>
    void
    check(Harness &h, Peek peek) const
    {
        h.run();
        for (const Load &ld : loads) {
            EXPECT_EQ(h.exec.reg(ld.rd), ld.want)
                << opName(ld.op) << " at offset " << ld.imm;
        }
        for (const auto &[addr, value] : bytes)
            EXPECT_EQ(peek(addr), value) << "byte 0x" << std::hex << addr;
    }

    Program prog;
    std::map<Addr, uint8_t> bytes;
    std::vector<Load> loads;
};

} // namespace

TEST(Executor, ExternalAccessesStraddlingAPageMatchAByteMap)
{
    // FlatMemory's 4 KiB pages: 0x80000FFF is the last byte of one.
    ByteMapCase c(0x80000FFFu);
    Harness h(c.prog);
    c.check(h, [&](Addr a) { return h.ext.peek(a); });
}

TEST(Executor, ExternalAccessesWrappingAt32BitsMatchAByteMap)
{
    // An access that starts off the local window goes whole to the
    // external store, whose later bytes wrap to its address 0 —
    // not to local dmem.
    ByteMapCase c(0xFFFFFFFFu);
    Harness h(c.prog);
    c.check(h, [&](Addr a) { return h.ext.peek(a); });
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(h.nodeMem.peekDmem(a), 0u);
}

TEST(Executor, LocalDmemAccessesMatchAByteMap)
{
    ByteMapCase c(0x101);
    Harness h(c.prog);
    c.check(h, [&](Addr a) { return h.nodeMem.peekDmem(a); });
}

TEST(Executor, Slice0AccessesMatchAByteMap)
{
    ByteMapCase c(amap::slice0Base + 0x41);
    Harness h(c.prog);
    c.check(h, [&](Addr a) {
        return h.cmem.loadByte(a - amap::slice0Base);
    });
    EXPECT_EQ(h.ext.peek(amap::slice0Base + 0x41), 0u);
}

TEST(ExecutorDeath, PcPastTheProgramEndPanics)
{
    // No ecall: the second step fetches from one past the end.
    Assembler a;
    a.addi(t0, t0, 1);
    Harness h(a.finish());
    h.exec.step();
    EXPECT_EQ(h.exec.pc(), 4u);
    EXPECT_DEATH(h.exec.step(), "pc 0x00000004 is past the program end");
}
