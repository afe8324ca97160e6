#include "core/timing.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"
#include "mem/address_map.hh"
#include "rv32/encoding.hh"

namespace maicc
{

using rv32::Inst;
using rv32::Op;

CoreTimingModel::CoreTimingModel(const rv32::Program &program,
                                 rv32::MemIf &mem, CMem *cm,
                                 rv32::RowPortIf *rows,
                                 const CoreConfig &config)
    : SimComponent("core"), cfg(config), exec(program, mem, cm, rows),
      cmem(cm), regReady(32, 0), regWbDone(32, 0),
      sliceFree(cm ? cm->config().numSlices : 0, 0),
      sliceDataReady(cm ? cm->config().numSlices : 0, 0),
      wbBooked(256, 0)
{
    maicc_assert(config.wbPorts >= 1);
    decoded.reserve(program.insts.size());
    for (const Inst &in : program.insts) {
        Decoded d;
        if (rv32::isCMemOp(in.op))
            d.unit = Unit::CMem;
        else if (rv32::isLoadOp(in.op) || rv32::isStoreOp(in.op)
                 || rv32::isAmoOp(in.op))
            d.unit = Unit::Mem;
        else if (in.op == Op::DIV || in.op == Op::DIVU
                 || in.op == Op::REM || in.op == Op::REMU)
            d.unit = Unit::Div;
        else if (in.op == Op::MUL || in.op == Op::MULH
                 || in.op == Op::MULHSU || in.op == Op::MULHU)
            d.unit = Unit::Mul;
        d.readsRs1 = in.readsRs1();
        d.readsRs2 = in.readsRs2();
        d.writesRd = in.writesRd();
        d.control = rv32::isControlOp(in.op);
        d.immOffset = !(rv32::isAmoOp(in.op) || in.op == Op::LR_W
                        || in.op == Op::SC_W);
        decoded.push_back(d);
    }
}

void
CoreTimingModel::reset()
{
    std::fill(regReady.begin(), regReady.end(), Cycles(0));
    std::fill(regWbDone.begin(), regWbDone.end(), Cycles(0));
    std::fill(sliceFree.begin(), sliceFree.end(), Cycles(0));
    std::fill(sliceDataReady.begin(), sliceDataReady.end(),
              Cycles(0));
    std::fill(wbBooked.begin(), wbBooked.end(), 0u);
    wbBase = 0;
    wbEnd = 0;
    cmemDispatch.clear();
    lastCMemDispatch = 0;
    divFree = 0;
    memPortFree = 0;
    fetchReady = 0;
    runStats = CoreRunStats{};
    SimComponent::reset();
}

void
CoreTimingModel::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("cycles", runStats.cycles);
    publish("insts", runStats.insts);
    publish("cmemInsts", runStats.cmemInsts);
    publish("localMemOps", runStats.localMemOps);
    publish("remoteOps", runStats.remoteOps);
    publish("stallRaw", runStats.stallRaw);
    publish("stallWaw", runStats.stallWaw);
    publish("stallStructural", runStats.stallStructural);
    publish("stallQueueFull", runStats.stallQueueFull);
    publish("cmemBusyCycles", runStats.cmemBusyCycles);
    publish("branchPenaltyCycles", runStats.branchPenaltyCycles);
}

void
CoreTimingModel::advanceWbWindow(Cycles front)
{
    if (front <= wbBase)
        return;
    // The slots of cycles that fall out of the window are reused
    // by the cycles one window length later: zero them.
    const Cycles mask = wbBooked.size() - 1;
    for (Cycles c = wbBase; c < std::min(front, wbEnd); ++c)
        wbBooked[c & mask] = 0;
    wbBase = front;
    wbEnd = std::max(wbEnd, front);
}

Cycles
CoreTimingModel::bookWbPort(Cycles ready)
{
    // The first cycle >= ready with bookings < wbPorts.
    maicc_assert(ready >= wbBase);
    Cycles slot = ready;
    while (true) {
        if (slot - wbBase >= wbBooked.size()) {
            // Past the window's end: double it until the slot fits,
            // re-placing the live cycles at their new positions.
            size_t size = wbBooked.size();
            while (slot - wbBase >= size)
                size *= 2;
            std::vector<unsigned> grown(size, 0);
            for (Cycles c = wbBase; c < wbEnd; ++c)
                grown[c & (size - 1)] =
                    wbBooked[c & (wbBooked.size() - 1)];
            wbBooked.swap(grown);
        }
        unsigned &booked = wbBooked[slot & (wbBooked.size() - 1)];
        if (booked < cfg.wbPorts) {
            ++booked;
            wbEnd = std::max(wbEnd, slot + 1);
            return slot;
        }
        ++slot;
    }
}

CoreRunStats
CoreTimingModel::run(uint64_t max_insts)
{
    ScopedHostTimer host_timer(*this);
    runStats = CoreRunStats{};
    Cycles end_time = 0;

    while (!exec.halted()) {
        if (runStats.insts >= max_insts)
            maicc_fatal("timing run exceeded %llu instructions",
                        (unsigned long long)max_insts);

        const Inst &in = exec.current();
        Addr pc_before = exec.pc();
        const Decoded &dec = decoded[pc_before / 4];
        const bool tracing = trace::kEnabled && sink != nullptr;

        // Every booking this instruction makes is at or after its
        // issue, hence at or after fetchReady.
        advanceWbWindow(fetchReady);

        // Operand values before architectural execution: with
        // in-order issue these are exactly the values the hardware
        // reads.
        uint32_t rs1_val = exec.reg(in.rs1);
        uint32_t rs2_val = exec.reg(in.rs2);

        Cycles fetch = fetchReady;
        Cycles issue = fetchReady;

        // RAW interlock via the scoreboard / bypass network.
        Cycles raw = issue;
        if (dec.readsRs1)
            raw = std::max(raw, regReady[in.rs1]);
        if (dec.readsRs2)
            raw = std::max(raw, regReady[in.rs2]);
        Cycles stall_raw = raw - issue;
        runStats.stallRaw += stall_raw;
        issue = raw;

        // WAW: destination must have retired its previous write.
        Cycles stall_waw = 0;
        if (dec.writesRd) {
            Cycles waw = std::max(issue, regWbDone[in.rd]);
            stall_waw = waw - issue;
            runStats.stallWaw += stall_waw;
            issue = waw;
        }

        Cycles stall_queue = 0;
        Cycles stall_struct = 0;

        bool cmem_op = dec.unit == Unit::CMem;
        Cycles dispatch = 0;
        unsigned slice_a = 0, slice_b = 0;
        bool uses_slice_b = false;

        // Per-instruction outcome, captured for the commit trace.
        Cycles done_t = 0;  ///< result/data completion
        Cycles wb_t = 0;    ///< write-back slot (done_t if no rd)
        Cycles rdy_t = 0;   ///< bypass-ready time written for rd
        Cycles array_busy = 0;

        if (cmem_op) {
            maicc_assert(cmem);
            switch (in.op) {
              case Op::MAC_C:
                slice_a = rv32::descSlice(rs1_val);
                break;
              case Op::MOVE_C:
                slice_a = rv32::descSlice(rs1_val);
                slice_b = rv32::descSlice(rs2_val);
                uses_slice_b = true;
                break;
              case Op::SETROW_C:
              case Op::SHIFTROW_C:
                slice_a = rv32::descSlice(rs1_val);
                break;
              case Op::LOADROW_RC:
              case Op::STOREROW_RC:
                slice_a = rv32::descSlice(rs2_val);
                break;
              case Op::SETMASK_C:
                slice_a = rs1_val & 0x7;
                break;
              default:
                maicc_panic("unhandled CMem op");
            }

            Cycles busy = 0;
            switch (in.op) {
              case Op::MAC_C: busy = CMem::maccCycles(in.cmemN); break;
              case Op::MOVE_C: busy = CMem::moveCycles(in.cmemN); break;
              case Op::SETROW_C: busy = CMem::setRowCycles(); break;
              case Op::SHIFTROW_C:
                busy = CMem::shiftRowCycles();
                break;
              case Op::LOADROW_RC:
              case Op::STOREROW_RC:
                busy = CMem::rowXferCycles();
                break;
              case Op::SETMASK_C: busy = 1; break;
              default: break;
            }

            // SetMask.C is a 1-cycle CSR write (Table 2): it orders
            // with the slice's array ops at dispatch, but occupies
            // no array bank and is not CMem array busy time.
            bool array_op = in.op != Op::SETMASK_C;

            // Earliest the target slice(s) can accept the op.
            // LoadRow.RC only needs the slice port; compute ops
            // additionally wait for any in-flight remote rows.
            Cycles slice_ready =
                std::max(lastCMemDispatch, sliceFree[slice_a]);
            if (in.op != Op::LOADROW_RC) {
                slice_ready = std::max(slice_ready,
                                       sliceDataReady[slice_a]);
            }
            if (uses_slice_b) {
                slice_ready =
                    std::max({slice_ready, sliceFree[slice_b],
                              sliceDataReady[slice_b]});
            }

            if (cfg.cmemQueueSize == 0) {
                // No issue queue: the instruction blocks in ID
                // until the CMem can start it.
                Cycles d = std::max(issue, slice_ready);
                stall_queue = d - issue;
                runStats.stallQueueFull += stall_queue;
                issue = d;
                dispatch = d;
            } else {
                // FIFO queue (bypassed when empty): issue blocks
                // only when the queue is full, i.e. the oldest of
                // the last queueSize CMem instructions has not yet
                // dispatched.
                if (cmemDispatch.size() >= cfg.cmemQueueSize) {
                    Cycles q = std::max(
                        issue,
                        cmemDispatch[cmemDispatch.size()
                                     - cfg.cmemQueueSize]);
                    stall_queue = q - issue;
                    runStats.stallQueueFull += stall_queue;
                    issue = q;
                }
                dispatch = std::max(issue, slice_ready);
            }

            cmemDispatch.push_back(dispatch);
            if (cmemDispatch.size() > cfg.cmemQueueSize + 1)
                cmemDispatch.pop_front();
            lastCMemDispatch = dispatch;

            if (array_op) {
                sliceFree[slice_a] = dispatch + busy;
                if (uses_slice_b)
                    sliceFree[slice_b] = dispatch + busy;
                runStats.cmemBusyCycles += busy;
                array_busy = busy;
            }
            ++runStats.cmemInsts;

            Cycles done = dispatch + busy;
            if (in.op == Op::LOADROW_RC) {
                // Remote round trip before the row lands; fetches
                // pipeline (the slice port frees immediately).
                done += cfg.remoteLatency;
                sliceDataReady[slice_a] =
                    std::max(sliceDataReady[slice_a], done);
            }
            done_t = done;

            if (dec.writesRd) {
                // CMem results return through the register file.
                Cycles wb = bookWbPort(done);
                regReady[in.rd] = wb;
                regWbDone[in.rd] = wb;
                rdy_t = wb;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                // Pipeline-side occupancy only: an in-flight
                // LoadRow.RC row fill is accounted for by the
                // sliceDataReady fold in the epilogue.
                wb_t = done;
                end_time = std::max(end_time, dispatch + busy);
            }
        } else if (dec.unit == Unit::Mem) {
            Cycles s = std::max(issue, memPortFree);
            stall_struct = s - issue;
            runStats.stallStructural += stall_struct;
            issue = s;
            memPortFree = issue + 1;
            dispatch = issue;

            Addr ea = rs1_val + (dec.immOffset ? in.imm : 0);
            bool local = amap::isLocalDmem(ea)
                || amap::isLocalSlice0(ea);
            Cycles lat = local ? cfg.loadLatency : cfg.remoteLatency;
            if (local)
                ++runStats.localMemOps;
            else
                ++runStats.remoteOps;

            if (dec.writesRd) {
                Cycles done = issue + lat;
                regReady[in.rd] = done; // bypass at fill
                Cycles wb = bookWbPort(done);
                regWbDone[in.rd] = wb;
                done_t = done;
                rdy_t = done;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                // Stores are fire-and-forget (posted writes).
                done_t = issue + 1;
                wb_t = done_t;
                end_time = std::max(end_time, issue + 1);
            }
        } else if (dec.unit == Unit::Div) {
            Cycles s = std::max(issue, divFree);
            stall_struct = s - issue;
            runStats.stallStructural += stall_struct;
            issue = s;
            dispatch = issue;
            Cycles done = issue + cfg.divLatency;
            divFree = done; // unpipelined
            regReady[in.rd] = done;
            Cycles wb = bookWbPort(done);
            regWbDone[in.rd] = wb;
            done_t = done;
            rdy_t = done;
            wb_t = wb;
            end_time = std::max(end_time, wb + 1);
        } else if (dec.unit == Unit::Mul) {
            dispatch = issue;
            Cycles done = issue + cfg.mulLatency;
            regReady[in.rd] = done;
            Cycles wb = bookWbPort(done);
            regWbDone[in.rd] = wb;
            done_t = done;
            rdy_t = done;
            wb_t = wb;
            end_time = std::max(end_time, wb + 1);
        } else {
            // Single-cycle ALU / control.
            dispatch = issue;
            Cycles done = issue + 1;
            done_t = done;
            wb_t = done;
            if (dec.writesRd) {
                regReady[in.rd] = done; // full bypass
                Cycles wb = bookWbPort(done);
                regWbDone[in.rd] = wb;
                rdy_t = done;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                end_time = std::max(end_time, done);
            }
        }

        // Architectural execution and fetch redirect.
        exec.step();
        bool taken = dec.control && exec.pc() != pc_before + 4;
        fetchReady = issue + 1;
        if (taken) {
            fetchReady += cfg.branchPenalty;
            runStats.branchPenaltyCycles += cfg.branchPenalty;
        }
        end_time = std::max(end_time, fetchReady);

        if (tracing) {
            trace::InstRecord rec;
            rec.seq = runStats.insts;
            rec.pc = pc_before;
            rec.op = static_cast<uint16_t>(in.op);
            rec.rd = in.rd;
            rec.rs1 = in.rs1;
            rec.rs2 = in.rs2;
            rec.writesRd = dec.writesRd;
            rec.readsRs1 = dec.readsRs1;
            rec.readsRs2 = dec.readsRs2;
            rec.fetch = fetch;
            rec.issue = issue;
            rec.dispatch = cmem_op ? dispatch : issue;
            rec.busy = array_busy;
            rec.done = done_t;
            rec.wb = wb_t;
            rec.regReadyAt = rdy_t;
            rec.stallRaw = stall_raw;
            rec.stallWaw = stall_waw;
            rec.stallQueue = stall_queue;
            rec.stallStructural = stall_struct;
            rec.cmem = cmem_op;
            rec.sliceA = static_cast<uint8_t>(slice_a);
            rec.sliceB = static_cast<uint8_t>(slice_b);
            rec.usesSliceA = array_busy > 0;
            rec.usesSliceB = uses_slice_b && array_busy > 0;
            sink->insts.push_back(rec);
        }

        ++runStats.insts;
    }

    // The program has drained from the pipeline; in-flight CMem
    // array operations and remote row fills (sliceDataReady) may
    // still be outstanding and bound the run time.
    for (Cycles t : sliceFree)
        end_time = std::max(end_time, t);
    for (Cycles t : sliceDataReady)
        end_time = std::max(end_time, t);
    runStats.cycles = end_time;
    return runStats;
}

} // namespace maicc
