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
                                 NodeMemory &mem, CMem *cm,
                                 RowStore *rows,
                                 const CoreConfig &config)
    : SimComponent("core"), cfg(config), exec(program, mem, cm, rows),
      cmem(cm), sliceFree(cm ? cm->config().numSlices : 0, 0),
      sliceDataReady(cm ? cm->config().numSlices : 0, 0),
      wbSlots(256)
{
    maicc_assert(config.wbPorts >= 1);
    decoded.reserve(program.insts.size());
    for (const Inst &in : program.insts) {
        Decoded d;
        static_cast<rv32::InstFields &>(d) = in;
        d.cmemN = in.cmemN;
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
    regReady.fill(0);
    regWbDone.fill(0);
    std::fill(sliceFree.begin(), sliceFree.end(), Cycles(0));
    std::fill(sliceDataReady.begin(), sliceDataReady.end(),
              Cycles(0));
    std::fill(wbSlots.begin(), wbSlots.end(), WbSlot{});
    wbBase = 0;
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

Cycles
CoreTimingModel::bookWbPortSlow(Cycles ready)
{
    // The first cycle >= ready with bookings < wbPorts.
    maicc_assert(ready >= wbBase);
    for (Cycles slot = ready;; ++slot) {
        if (slot - wbBase >= wbSlots.size()) {
            // Past the window's end: double it until the slot fits,
            // re-placing the cycles still in the window.
            size_t size = wbSlots.size();
            while (slot - wbBase >= size)
                size *= 2;
            std::vector<WbSlot> grown(size);
            for (const WbSlot &s : wbSlots) {
                if (s.cycle >= wbBase)
                    grown[s.cycle & (size - 1)] = s;
            }
            wbSlots.swap(grown);
        }
        WbSlot &s = wbSlots[slot & (wbSlots.size() - 1)];
        unsigned booked = s.cycle == slot ? s.booked : 0;
        if (booked < cfg.wbPorts) {
            s = {slot, booked + 1};
            return slot;
        }
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

        const Addr pc_before = exec.pc();
        const size_t idx = pc_before / 4;
        if (idx >= decoded.size())
            exec.badPc();
        const Decoded &dec = decoded[idx];
        const bool tracing = trace::kEnabled && sink != nullptr;

        // Every booking this instruction makes is at or after its
        // issue, hence at or after fetchReady.
        advanceWbWindow(fetchReady);

        // Operand values before architectural execution: with
        // in-order issue these are exactly the values the hardware
        // reads.
        uint32_t rs1_val = exec.reg(dec.rs1);
        uint32_t rs2_val = exec.reg(dec.rs2);

        Cycles fetch = fetchReady;
        Cycles issue = fetchReady;

        // RAW interlock via the scoreboard / bypass network.
        Cycles raw = issue;
        if (dec.readsRs1)
            raw = std::max(raw, regReady[dec.rs1]);
        if (dec.readsRs2)
            raw = std::max(raw, regReady[dec.rs2]);
        Cycles stall_raw = raw - issue;
        runStats.stallRaw += stall_raw;
        issue = raw;

        // WAW: destination must have retired its previous write.
        Cycles stall_waw = 0;
        if (dec.writesRd) {
            Cycles waw = std::max(issue, regWbDone[dec.rd]);
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
            switch (dec.op) {
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
            switch (dec.op) {
              case Op::MAC_C: busy = CMem::maccCycles(dec.cmemN); break;
              case Op::MOVE_C: busy = CMem::moveCycles(dec.cmemN); break;
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
            bool array_op = dec.op != Op::SETMASK_C;

            // Earliest the target slice(s) can accept the op.
            // LoadRow.RC only needs the slice port; compute ops
            // additionally wait for any in-flight remote rows.
            Cycles slice_ready =
                std::max(lastCMemDispatch, sliceFree[slice_a]);
            if (dec.op != Op::LOADROW_RC) {
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
            if (dec.op == Op::LOADROW_RC) {
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
                regReady[dec.rd] = wb;
                regWbDone[dec.rd] = wb;
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

            Addr ea = rs1_val + (dec.immOffset ? dec.imm : 0);
            bool local = amap::isLocalDmem(ea)
                || amap::isLocalSlice0(ea);
            Cycles lat = local ? cfg.loadLatency : cfg.remoteLatency;
            if (local)
                ++runStats.localMemOps;
            else
                ++runStats.remoteOps;

            if (dec.writesRd) {
                Cycles done = issue + lat;
                regReady[dec.rd] = done; // bypass at fill
                Cycles wb = bookWbPort(done);
                regWbDone[dec.rd] = wb;
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
            regReady[dec.rd] = done;
            Cycles wb = bookWbPort(done);
            regWbDone[dec.rd] = wb;
            done_t = done;
            rdy_t = done;
            wb_t = wb;
            end_time = std::max(end_time, wb + 1);
        } else if (dec.unit == Unit::Mul) {
            dispatch = issue;
            Cycles done = issue + cfg.mulLatency;
            regReady[dec.rd] = done;
            Cycles wb = bookWbPort(done);
            regWbDone[dec.rd] = wb;
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
                regReady[dec.rd] = done; // full bypass
                Cycles wb = bookWbPort(done);
                regWbDone[dec.rd] = wb;
                rdy_t = done;
                wb_t = wb;
                end_time = std::max(end_time, wb + 1);
            } else {
                end_time = std::max(end_time, done);
            }
        }

        // Architectural execution and fetch redirect.
        exec.execute(dec);
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
            rec.op = static_cast<uint16_t>(dec.op);
            rec.rd = dec.rd;
            rec.rs1 = dec.rs1;
            rec.rs2 = dec.rs2;
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
