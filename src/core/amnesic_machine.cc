#include "core/amnesic_machine.h"

#include "util/logging.h"

namespace amnesiac {

AmnesicMachine::AmnesicMachine(const Program &program,
                               const EnergyModel &energy,
                               const AmnesicConfig &config,
                               const HierarchyConfig &hierarchy_config,
                               const TimingConfig &timing)
    : Machine(program, energy, hierarchy_config, timing),
      _config(config), _sfile(config.sfileCapacity),
      _hist(config.histCapacity), _ibuff(config.ibuffCapacity),
      _predictor(config.predictorLogEntries)
{
#ifndef NDEBUG
    // Debug-build spot checks mirroring the analyzer's hard errors (the
    // AMNxxx ids refer to DESIGN.md's diagnostic table). Release builds
    // rely on the compiler/experiment gates having run the full
    // analyzer; these only cover the invariants whose violation would
    // corrupt machine state instead of failing loudly.
    for (const RSliceMeta &meta : program.slices) {
        std::uint64_t end = std::uint64_t{meta.entry} + meta.length;
        AMNESIAC_ASSERT(end < program.code.size(),
                        "AMN503: slice block extends beyond the program");
        AMNESIAC_ASSERT(
            program.code[static_cast<std::uint32_t>(end)].op == Opcode::Rtn,
            "AMN401: slice block is not sealed by RTN");
        for (std::uint32_t pc = meta.entry; pc < end; ++pc)
            AMNESIAC_ASSERT(isSliceable(program.code[pc].op),
                            "AMN101: non-sliceable opcode in slice body");
    }
#endif

    // Precompute per-slice runtime recomputation energy for the oracle
    // decision rule (§5.1: "decisions are based on actual energy costs").
    // The decision model may be pinned to a different non-memory scale
    // than the charged model (Table 6 sweeps).
    EnergyModel decision = config.decisionNonMemScale > 0.0
        ? energy.withNonMemScale(config.decisionNonMemScale)
        : energy;
    _failedSlices.assign(program.slices.size(), 0);
    _sliceEnergy.resize(program.slices.size(), 0.0);
    _sliceChargedNj.resize(program.slices.size(), 0.0);
    for (const RSliceMeta &meta : program.slices) {
        double erc = 0.0;
        double charged = 0.0;
        for (std::uint32_t pc = meta.entry; pc < meta.entry + meta.length;
             ++pc) {
            const Instruction &instr = program.code[pc];
            erc += decision.instrEnergy(categoryOf(instr.op));
            charged += energy.instrEnergy(categoryOf(instr.op));
            bool hist_operand =
                (numSources(instr.op) >= 1 &&
                 instr.src1 == OperandSource::Hist) ||
                (numSources(instr.op) >= 2 &&
                 instr.src2 == OperandSource::Hist);
            if (hist_operand) {
                erc += decision.histAccessEnergy();
                charged += energy.histAccessEnergy();
            }
        }
        erc += decision.instrEnergy(InstrCategory::Rtn);
        charged += energy.instrEnergy(InstrCategory::Rtn);
        AMNESIAC_ASSERT(meta.id < _sliceEnergy.size(),
                        "slice ids must be dense");
        _sliceEnergy[meta.id] = erc;
        _sliceChargedNj[meta.id] = charged;
    }
}

double
AmnesicMachine::runtimeSliceEnergy(std::uint32_t slice_id) const
{
    AMNESIAC_ASSERT(slice_id < _sliceChargedNj.size(),
                    "slice id out of range");
    return _sliceChargedNj[slice_id];
}

void
AmnesicMachine::execAmnesic(const Instruction &instr)
{
    switch (instr.op) {
      case Opcode::Rec:
        execRec(instr);
        break;
      case Opcode::Rcmp:
        execRcmp(instr);
        break;
      case Opcode::Rtn:
        // Slices are traversed synchronously inside execRcmp; control
        // flow can never fall onto an RTN.
        AMNESIAC_PANIC("RTN reached outside slice traversal");
      default:
        AMNESIAC_PANIC("execAmnesic: unexpected opcode");
    }
}

void
AmnesicMachine::execRec(const Instruction &instr)
{
    // REC is modeled after a store to L1-D (§4); it charges the store
    // bucket so Table 4's breakdown reflects the checkpoint traffic.
    chargeEnergy(energyModel().instrEnergy(InstrCategory::Rec),
                 &EnergyBreakdown::storeNj);
    chargeCycles(
        timingModel().instrLatency(energyModel(), InstrCategory::Rec));

    std::uint64_t v0 = readReg(instr.rs1);
    std::uint64_t v1 = readReg(instr.rs2);
    bool commit = true;
    if (_faults)
        commit = _faults->onRecCheckpoint(instr.leafAddr, instr.sliceId,
                                          !_hist.lookup(instr.leafAddr),
                                          v0, v1);
    if (!commit) {
        // Injected drop: Hist silently keeps its previous contents. The
        // slice is *not* poisoned — whether the stale/missing entry is
        // masked or detected is exactly what the oracle checks.
        setPc(pc() + 1);
        return;
    }

    bool recorded = _hist.record(instr.leafAddr, v0, v1);
    if (recorded) {
        ++mutableStats().histWrites;
    } else {
        // §3.5: a failed REC poisons its slice; the matching RCMP must
        // skip recomputation from now on.
        ++mutableStats().histOverflows;
        poisonSlice(instr.sliceId);
    }
    if (_trace)
        _trace->onRec(stats().cycles, pc(), instr.sliceId, instr.leafAddr,
                      !recorded);
    setPc(pc() + 1);
}

void
AmnesicMachine::execRcmp(const Instruction &instr)
{
    std::uint32_t rcmp_pc = pc();
    std::uint64_t addr = effectiveAddr(instr);
    ++mutableStats().rcmpSeen;
    AMNESIAC_ASSERT(instr.sliceId < _failedSlices.size(),
                    "RCMP names no slice");

    // The fused branch itself (§4: modeled after a conditional branch).
    chargeNonMem(InstrCategory::Rcmp);

    MemLevel residence = hierarchy().peekLevel(addr);

    // Tracing is passive: the event is staged on the side and emitted
    // once the RCMP resolved; nothing below consults it.
    AmnesicTraceHooks::RcmpEvent traced;
    if (_trace) {
        traced.pc = rcmp_pc;
        traced.sliceId = instr.sliceId;
        traced.addr = addr;
        traced.residence = residence;
        traced.poisoned = _failedSlices[instr.sliceId] != 0;
        traced.loadNj = energyModel().loadEnergy(residence);
        traced.sliceNj = _sliceChargedNj[instr.sliceId];
        traced.estSliceNj = _sliceEnergy[instr.sliceId];
    }

    bool recompute = !_failedSlices[instr.sliceId] &&
                     shouldRecompute(instr, residence,
                                     _trace ? &traced : nullptr);

    if (recompute) {
        _ibuff.fill(program().slices[instr.sliceId].length);
        if (_trace)
            _trace->onSliceEntry(stats().cycles, rcmp_pc, instr.sliceId);
        TraverseResult traversal = traverseSlice(instr, addr);
        if (_trace) {
            _trace->onSliceExit(stats().cycles, rcmp_pc, instr.sliceId,
                                traversal.instrs, traversal.completed);
            traced.histMissAbort = traversal.histMiss;
            traced.sfileAbort = traversal.sfileOverflow;
            traced.sliceInstrs = traversal.instrs;
        }
        if (traversal.completed) {
            ++mutableStats().recomputations;
            ++mutableStats().swappedByLevel[
                static_cast<std::size_t>(residence)];
            setPc(rcmp_pc + 1);
            if (_trace) {
                traced.fired = true;
                traced.cycles = stats().cycles;
                _trace->onRcmp(traced);
            }
            return;
        }
        recompute = false;  // aborted; fall back to the load
    }

    performLoad(rcmp_pc, instr);
    ++mutableStats().fallbackLoads;
    ++mutableStats().fallbackByLevel[
        static_cast<std::size_t>(residence)];
    setPc(rcmp_pc + 1);
    if (_trace) {
        traced.cycles = stats().cycles;
        _trace->onRcmp(traced);
    }
}

void
AmnesicMachine::poisonSlice(std::uint32_t slice_id)
{
    AMNESIAC_ASSERT(slice_id < _failedSlices.size(), "slice id out of range");
    _failedSliceCount += _failedSlices[slice_id] == 0;
    _failedSlices[slice_id] = 1;
}

bool
AmnesicMachine::shouldRecompute(const Instruction &instr,
                                MemLevel residence,
                                AmnesicTraceHooks::RcmpEvent *trace)
{
    const EnergyModel &energy = energyModel();
    switch (_config.policy) {
      case Policy::Compiler:
        // Runtime-oblivious: every RCMP fires (§3.3.1).
        return true;
      case Policy::FLC:
        if (residence == MemLevel::L1)
            return false;  // the probe becomes the load's own L1 lookup
        // Miss: the probe energy is sunk on top of recomputation.
        chargeEnergy(energy.probeEnergy(MemLevel::L1),
                     &EnergyBreakdown::loadNj);
        chargeCycles(energy.probeLatency(MemLevel::L1));
        return true;
      case Policy::LLC:
        if (residence != MemLevel::Memory)
            return false;
        chargeEnergy(energy.probeEnergy(MemLevel::L2),
                     &EnergyBreakdown::loadNj);
        chargeCycles(energy.probeLatency(MemLevel::L2));
        return true;
      case Policy::COracle:
      case Policy::Oracle:
        // 100%-accurate, free residence prediction (§5.1): recompute
        // iff it is exactly cheaper than the load would be.
        return energy.loadEnergy(residence) > _sliceEnergy[instr.sliceId];
      case Policy::Predictor: {
        // §3.3.1 future work: decide like FLC but from a per-site miss
        // predictor instead of a probe — no probe energy or latency.
        // Training feedback is the observed residence (idealized for
        // recomputed instances; fallback loads observe it naturally).
        bool predicted_miss = _predictor.predictMiss(pc());
        bool actual_miss = residence != MemLevel::L1;
        _predictor.account(predicted_miss, actual_miss);
        _predictor.train(pc(), actual_miss);
        if (trace) {
            trace->predictorUsed = true;
            trace->predictedMiss = predicted_miss;
        }
        return predicted_miss;
      }
    }
    AMNESIAC_PANIC("shouldRecompute: bad policy");
}

AmnesicMachine::TraverseResult
AmnesicMachine::traverseSlice(const Instruction &rcmp, std::uint64_t addr)
{
    TraverseResult result;
    const RSliceMeta &meta = program().slices[rcmp.sliceId];
    _sfile.beginSlice();
    _renamer.beginSlice();

    std::uint64_t root_value = 0;
    for (std::uint32_t spc = meta.entry; spc < meta.entry + meta.length;
         ++spc) {
        const Instruction &si = program().code[spc];
        std::uint64_t in[2] = {0, 0};
        bool hist_read_done = false;
        int sources = numSources(si.op);
        for (int k = 0; k < sources; ++k) {
            OperandSource src = k == 0 ? si.src1 : si.src2;
            Reg reg = k == 0 ? si.rs1 : si.rs2;
            switch (src) {
              case OperandSource::Slice: {
                auto idx = _renamer.lookup(reg);
                AMNESIAC_ASSERT(idx.has_value(),
                                "AMN102: slice operand read before "
                                "defined — malformed slice region");
                in[k] = _sfile.read(*idx);
                break;
              }
              case OperandSource::Live:
                in[k] = readReg(reg);
                break;
              case OperandSource::Hist: {
                const Hist::Entry *entry = _hist.lookup(spc);
                if (!entry) {
                    // The leaf's producer has not run yet: Condition-II
                    // unmet, perform the load instead.
                    ++mutableStats().histMissFallbacks;
                    result.histMiss = true;
                    return result;
                }
                if (!hist_read_done) {
                    chargeEnergy(energyModel().histAccessEnergy(),
                                 &EnergyBreakdown::histReadNj);
                    ++mutableStats().histReads;
                    hist_read_done = true;
                }
                in[k] = entry->values[static_cast<std::size_t>(k)];
                break;
              }
            }
        }
        std::uint64_t value = evalAlu(si.op, in[0], in[1], si.imm);
        // Fault surface: the value is corrupted *before* the SFile write,
        // so the flip propagates exactly like a scratch-file SEU —
        // through renamed reads and, at the root, into rd.
        if (_faults)
            _faults->onSliceValue(spc, rcmp.sliceId, value);
        auto slot = _sfile.alloc(value);
        if (!slot) {
            // §3.4 capacity overflow: poison the slice so later RCMPs
            // skip straight to the load.
            ++mutableStats().sfileAborts;
            poisonSlice(rcmp.sliceId);
            result.sfileOverflow = true;
            return result;
        }
        _renamer.bind(si.rd, *slot);
        root_value = value;

        chargeNonMemAt(spc);
        ++mutableStats().dynInstrs;
        ++mutableStats().perCategory[static_cast<std::size_t>(
            decodedCategory(spc))];
        ++mutableStats().recomputedInstrs;
        ++result.instrs;
    }

    // The closing RTN (§4: modeled after a jump).
    chargeNonMem(InstrCategory::Rtn);
    ++mutableStats().dynInstrs;
    ++mutableStats().perCategory[static_cast<std::size_t>(
        InstrCategory::Rtn)];

    // "Before return, the recomputed data value v gets copied into the
    // destination register of the eliminated load" (§3.3.2).
    writeReg(rcmp.rd, root_value);

    if (_config.shadowCheck) {
        ++mutableStats().recomputeChecked;
        std::uint64_t expected = memRead(addr);
        if (root_value != expected) {
            ++mutableStats().recomputeMismatches;
            if (_trace)
                _trace->onShadowMismatch(stats().cycles, pc(), rcmp.sliceId,
                                         addr, root_value, expected);
            if (_config.strictMismatch)
                AMNESIAC_PANIC("recomputed value mismatch at pc " +
                               std::to_string(pc()));
        }
    }
    result.completed = true;
    return result;
}

}  // namespace amnesiac
