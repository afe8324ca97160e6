/**
 * @file
 * Decoded-instruction representation for RV32IMA plus the MAICC
 * CMem extension (paper Table 2).
 *
 * The CMem extension lives in the custom-0 major opcode (0x0B).
 * Operands are register-carried descriptors: a CMem location is
 * (slice << 6 | row) in a general register; precision n rides in
 * funct7[4:0]. See rv32/encoding.hh for the exact formats.
 */

#ifndef MAICC_RV32_INST_HH
#define MAICC_RV32_INST_HH

#include <cstdint>
#include <string>

namespace maicc
{
namespace rv32
{

/** Architectural register indices with ABI aliases. */
enum Reg : uint8_t
{
    x0 = 0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13,
    x14, x15, x16, x17, x18, x19, x20, x21, x22, x23, x24, x25, x26,
    x27, x28, x29, x30, x31,

    zero = x0, ra = x1, sp = x2, gp = x3, tp = x4,
    t0 = x5, t1 = x6, t2 = x7,
    s0 = x8, fp = x8, s1 = x9,
    a0 = x10, a1 = x11, a2 = x12, a3 = x13, a4 = x14, a5 = x15,
    a6 = x16, a7 = x17,
    s2 = x18, s3 = x19, s4 = x20, s5 = x21, s6 = x22, s7 = x23,
    s8 = x24, s9 = x25, s10 = x26, s11 = x27,
    t3 = x28, t4 = x29, t5 = x30, t6 = x31,
};

/** Every operation the simulator understands. */
enum class Op : uint8_t
{
    // RV32I
    LUI, AUIPC, JAL, JALR,
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    LB, LH, LW, LBU, LHU, SB, SH, SW,
    ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
    ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
    FENCE, ECALL, EBREAK,
    // RV32M
    MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,
    // RV32A
    LR_W, SC_W, AMOSWAP_W, AMOADD_W, AMOXOR_W, AMOAND_W, AMOOR_W,
    AMOMIN_W, AMOMAX_W, AMOMINU_W, AMOMAXU_W,
    // CMem extension (custom-0)
    MAC_C,       ///< rd <- MAC of two n-bit vectors in one slice
    MOVE_C,      ///< move an n-bit vector between slices
    SETROW_C,    ///< set one row to all-0 / all-1
    SHIFTROW_C,  ///< shift one row in 32-bit granularity
    LOADROW_RC,  ///< remote-load one row from another node
    STOREROW_RC, ///< remote-store one row to another node
    SETMASK_C,   ///< write a slice's 8-bit mask CSR
    // Decode failure
    ILLEGAL,
};

/** @return the mnemonic for @p op. */
const char *opName(Op op);

/** @return true for any CMem-extension operation. */
bool isCMemOp(Op op);

/** @return true for branches/jumps. */
bool isControlOp(Op op);

/** @return true for plain loads (LB..LHU, LW, LR_W). */
bool isLoadOp(Op op);

/** @return true for plain stores (SB/SH/SW, SC_W). */
bool isStoreOp(Op op);

/** @return true for AMOs. */
bool isAmoOp(Op op);

/**
 * The fields of a decoded instruction that every execution step
 * reads; the rest of Inst serves CMem operations, illegal-
 * instruction reports and disassembly.
 */
struct InstFields
{
    Op op = Op::ILLEGAL;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;
};

/** A fully decoded instruction. */
struct Inst : InstFields
{
    /** CMem precision n for MAC.C / Move.C (from funct7[4:0]). */
    uint8_t cmemN = 0;
    /** SetRow.C value bit (funct7[0]). */
    uint8_t cmemVal = 0;
    uint32_t raw = 0;

    /** @return whether this instruction writes @c rd. */
    bool writesRd() const;
    /** @return whether this instruction reads @c rs1. */
    bool readsRs1() const;
    /** @return whether this instruction reads @c rs2. */
    bool readsRs2() const;

    /** Disassemble to a human-readable string. */
    std::string toString() const;
};

} // namespace rv32
} // namespace maicc

#endif // MAICC_RV32_INST_HH
