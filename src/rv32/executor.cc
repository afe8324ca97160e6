#include "rv32/executor.hh"

#include "common/logging.hh"
#include "rv32/encoding.hh"

namespace maicc
{
namespace rv32
{

Executor::Executor(const Program &program, NodeMemory &memory,
                   CMem *cm, RowStore *row_port)
    : prog(program), mem(memory), cmem(cm), rows(row_port)
{
}

void
Executor::setReg(unsigned idx, uint32_t value)
{
    maicc_assert(idx < 32);
    if (idx != 0)
        regs[idx] = value;
}

void
Executor::badPc() const
{
    maicc_panic("pc 0x%08x is past the program end (%zu instructions)",
                _pc, prog.insts.size());
}

void
Executor::run(uint64_t max_insts)
{
    uint64_t budget = max_insts;
    while (!_halted && budget-- > 0)
        step();
    if (!_halted)
        maicc_fatal("program exceeded %llu instructions",
                    (unsigned long long)max_insts);
}

uint32_t
Executor::amo(const Inst &in, uint32_t addr, uint32_t rs2_val)
{
    uint32_t old = mem.load(addr, 4);
    uint32_t neu = old;
    switch (in.op) {
      case Op::AMOSWAP_W: neu = rs2_val; break;
      case Op::AMOADD_W:  neu = old + rs2_val; break;
      case Op::AMOXOR_W:  neu = old ^ rs2_val; break;
      case Op::AMOAND_W:  neu = old & rs2_val; break;
      case Op::AMOOR_W:   neu = old | rs2_val; break;
      case Op::AMOMIN_W:
        neu = (int32_t)old < (int32_t)rs2_val ? old : rs2_val;
        break;
      case Op::AMOMAX_W:
        neu = (int32_t)old > (int32_t)rs2_val ? old : rs2_val;
        break;
      case Op::AMOMINU_W: neu = old < rs2_val ? old : rs2_val; break;
      case Op::AMOMAXU_W: neu = old > rs2_val ? old : rs2_val; break;
      default: maicc_panic("not an AMO");
    }
    mem.store(addr, neu, 4);
    return old;
}

void
Executor::executeCold(const Inst &in, uint32_t a, uint32_t b)
{
    auto wr = [&](uint32_t v) { writeRd(in, v); };

    switch (in.op) {
      case Op::LR_W:
        wr(mem.load(a, 4));
        reservation = true;
        reservationAddr = a;
        break;
      case Op::SC_W:
        if (reservation && reservationAddr == a) {
            mem.store(a, b, 4);
            wr(0);
        } else {
            wr(1);
        }
        reservation = false;
        break;
      case Op::AMOSWAP_W: case Op::AMOADD_W: case Op::AMOXOR_W:
      case Op::AMOAND_W: case Op::AMOOR_W: case Op::AMOMIN_W:
      case Op::AMOMAX_W: case Op::AMOMINU_W: case Op::AMOMAXU_W:
        wr(amo(in, a, b));
        break;
      case Op::MAC_C: {
        maicc_assert(cmem);
        unsigned sa = descSlice(a), sb = descSlice(b);
        maicc_assert(sa == sb);
        int64_t res = cmem->macc(sa, descRow(a), descRow(b),
                                 in.cmemN, true);
        wr(static_cast<uint32_t>(res));
        break;
      }
      case Op::MOVE_C:
        maicc_assert(cmem);
        cmem->move(descSlice(a), descRow(a), descSlice(b),
                   descRow(b), in.cmemN);
        break;
      case Op::SETROW_C:
        maicc_assert(cmem);
        cmem->setRow(descSlice(a), descRow(a), in.cmemVal);
        break;
      case Op::SHIFTROW_C:
        maicc_assert(cmem);
        cmem->shiftRow(descSlice(a), descRow(a),
                       static_cast<int32_t>(b));
        break;
      case Op::LOADROW_RC: {
        maicc_assert(cmem && rows);
        Row256 row = rows->loadRow(a);
        cmem->writeRowRemote(descSlice(b), descRow(b), row);
        break;
      }
      case Op::STOREROW_RC: {
        maicc_assert(cmem && rows);
        Row256 row = cmem->readRowRemote(descSlice(b), descRow(b));
        rows->storeRow(a, row);
        break;
      }
      case Op::SETMASK_C:
        maicc_assert(cmem);
        cmem->setMask(a & 0x7, b & 0xFF);
        break;
      case Op::ILLEGAL:
        maicc_panic("illegal instruction at pc=0x%x (raw 0x%08x)",
                    _pc, in.raw);
      default:
        maicc_panic("%s is executed inline", opName(in.op));
    }
}

} // namespace rv32
} // namespace maicc
