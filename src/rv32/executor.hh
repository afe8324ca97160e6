/**
 * @file
 * Functional (architectural-state) executor for RV32IMA + CMem.
 *
 * The cycle-level pipeline model (src/core) drives this executor in
 * an execute-at-issue style: timing is modelled separately, values
 * are always architecturally correct. It can also run standalone
 * for ISA tests.
 *
 * Loads and stores go straight to the node's NodeMemory (a final
 * class), and the common RV32IM step is defined inline below, so a
 * timing loop that calls execute() compiles the functional step
 * into its own body. Atomics, CMem operations and illegal
 * instructions are executed out of line.
 */

#ifndef MAICC_RV32_EXECUTOR_HH
#define MAICC_RV32_EXECUTOR_HH

#include <array>
#include <cstdint>

#include "cmem/cmem.hh"
#include "common/bitfield.hh"
#include "common/types.hh"
#include "mem/node_memory.hh"
#include "mem/row_store.hh"
#include "rv32/assembler.hh"
#include "rv32/inst.hh"

namespace maicc
{
namespace rv32
{

/**
 * Architectural state and single-step execution. Owns the register
 * file and pc; borrows the program, data memory, CMem, and row
 * port.
 */
class Executor
{
  public:
    Executor(const Program &program, NodeMemory &mem,
             CMem *cmem = nullptr, RowStore *rows = nullptr);

    /** Execute one instruction; no-op once halted. */
    void
    step()
    {
        if (!_halted)
            execute(current());
    }

    /**
     * Execute @p in as the instruction at the pc and retire it.
     * @p in must be current() or a copy of its fields; the caller
     * checks halted() first. The out-of-line operations read the
     * rest of the instruction from current().
     */
    void execute(const InstFields &in);

    /** Run until ecall/ebreak or @p max_insts retire. */
    void run(uint64_t max_insts = 100'000'000);

    bool halted() const { return _halted; }
    Addr pc() const { return _pc; }
    void setPc(Addr pc) { _pc = pc; }

    uint32_t reg(unsigned idx) const { return regs[idx]; }
    void setReg(unsigned idx, uint32_t value);

    uint64_t instsRetired() const { return retired; }

    /** The instruction the pc currently points at. */
    const Inst &
    current() const
    {
        size_t idx = _pc / 4;
        if (idx >= prog.insts.size())
            badPc();
        return prog.insts[idx];
    }

    /** Panic: the pc is past the end of the program. */
    [[noreturn]] void badPc() const;

  private:
    /** The atomics, CMem operations and ILLEGAL; no control flow. */
    void executeCold(const Inst &in, uint32_t a, uint32_t b);
    uint32_t amo(const Inst &in, uint32_t addr, uint32_t rs2_val);

    void
    writeRd(const InstFields &in, uint32_t value)
    {
        regs[in.rd] = value;
        regs[0] = 0;
    }

    const Program &prog;
    NodeMemory &mem;
    CMem *cmem;
    RowStore *rows;

    std::array<uint32_t, 32> regs{};
    Addr _pc = 0;
    bool _halted = false;
    bool reservation = false;
    Addr reservationAddr = 0;
    uint64_t retired = 0;
};

// Forced: too large for the compiler's own inlining heuristics, and
// the point of defining it here is that the timing loop inlines it.
[[gnu::always_inline]] inline void
Executor::execute(const InstFields &in)
{
    const uint32_t a = regs[in.rs1];
    const uint32_t b = regs[in.rs2];
    const Addr pc = _pc;
    Addr next = pc + 4;

    switch (in.op) {
      case Op::LUI: writeRd(in, in.imm); break;
      case Op::AUIPC: writeRd(in, pc + in.imm); break;
      case Op::JAL:
        writeRd(in, pc + 4);
        next = pc + in.imm;
        break;
      case Op::JALR:
        writeRd(in, pc + 4);
        next = (a + in.imm) & ~1u;
        break;
      case Op::BEQ: if (a == b) next = pc + in.imm; break;
      case Op::BNE: if (a != b) next = pc + in.imm; break;
      case Op::BLT:
        if ((int32_t)a < (int32_t)b)
            next = pc + in.imm;
        break;
      case Op::BGE:
        if ((int32_t)a >= (int32_t)b)
            next = pc + in.imm;
        break;
      case Op::BLTU: if (a < b) next = pc + in.imm; break;
      case Op::BGEU: if (a >= b) next = pc + in.imm; break;
      case Op::LB:
        writeRd(in, sext32(mem.load(a + in.imm, 1), 8));
        break;
      case Op::LH:
        writeRd(in, sext32(mem.load(a + in.imm, 2), 16));
        break;
      case Op::LW: writeRd(in, mem.load(a + in.imm, 4)); break;
      case Op::LBU: writeRd(in, mem.load(a + in.imm, 1)); break;
      case Op::LHU: writeRd(in, mem.load(a + in.imm, 2)); break;
      case Op::SB: mem.store(a + in.imm, b, 1); break;
      case Op::SH: mem.store(a + in.imm, b, 2); break;
      case Op::SW: mem.store(a + in.imm, b, 4); break;
      case Op::ADDI: writeRd(in, a + in.imm); break;
      case Op::SLTI: writeRd(in, (int32_t)a < in.imm ? 1 : 0); break;
      case Op::SLTIU:
        writeRd(in, a < (uint32_t)in.imm ? 1 : 0);
        break;
      case Op::XORI: writeRd(in, a ^ in.imm); break;
      case Op::ORI: writeRd(in, a | in.imm); break;
      case Op::ANDI: writeRd(in, a & in.imm); break;
      case Op::SLLI: writeRd(in, a << (in.imm & 31)); break;
      case Op::SRLI: writeRd(in, a >> (in.imm & 31)); break;
      case Op::SRAI: writeRd(in, (int32_t)a >> (in.imm & 31)); break;
      case Op::ADD: writeRd(in, a + b); break;
      case Op::SUB: writeRd(in, a - b); break;
      case Op::SLL: writeRd(in, a << (b & 31)); break;
      case Op::SLT: writeRd(in, (int32_t)a < (int32_t)b ? 1 : 0); break;
      case Op::SLTU: writeRd(in, a < b ? 1 : 0); break;
      case Op::XOR: writeRd(in, a ^ b); break;
      case Op::SRL: writeRd(in, a >> (b & 31)); break;
      case Op::SRA: writeRd(in, (int32_t)a >> (b & 31)); break;
      case Op::OR: writeRd(in, a | b); break;
      case Op::AND: writeRd(in, a & b); break;
      case Op::FENCE: break;
      case Op::ECALL:
      case Op::EBREAK:
        _halted = true;
        break;
      case Op::MUL: writeRd(in, a * b); break;
      case Op::MULH:
        writeRd(in,
                (uint32_t)(((int64_t)(int32_t)a * (int32_t)b) >> 32));
        break;
      case Op::MULHSU:
        writeRd(in,
                (uint32_t)(((int64_t)(int32_t)a * (uint64_t)b) >> 32));
        break;
      case Op::MULHU:
        writeRd(in, (uint32_t)(((uint64_t)a * b) >> 32));
        break;
      case Op::DIV:
        if (b == 0)
            writeRd(in, ~0u);
        else if (a == 0x80000000u && b == ~0u)
            writeRd(in, a);
        else
            writeRd(in, (int32_t)a / (int32_t)b);
        break;
      case Op::DIVU: writeRd(in, b == 0 ? ~0u : a / b); break;
      case Op::REM:
        if (b == 0)
            writeRd(in, a);
        else if (a == 0x80000000u && b == ~0u)
            writeRd(in, 0);
        else
            writeRd(in, (int32_t)a % (int32_t)b);
        break;
      case Op::REMU: writeRd(in, b == 0 ? a : a % b); break;
      default:
        executeCold(current(), a, b);
        break;
    }

    _pc = next;
    ++retired;
}

} // namespace rv32
} // namespace maicc

#endif // MAICC_RV32_EXECUTOR_HH
