#include "sim/machine.h"

#include <string>

#include "util/logging.h"

namespace amnesiac {

namespace {

// One cold reporter per fault kind, shared by the fast loop and the
// step() helpers, so each message is written in exactly one place.

[[noreturn, gnu::cold, gnu::noinline]] void
faultUnaligned(std::uint32_t pc)
{
    AMNESIAC_FATAL("unaligned 8-byte access at pc " + std::to_string(pc));
}

[[noreturn, gnu::cold, gnu::noinline]] void
faultLoadBeyondMemory(std::uint64_t addr)
{
    AMNESIAC_FATAL("load beyond data memory (addr " + std::to_string(addr) +
                   ")");
}

[[noreturn, gnu::cold, gnu::noinline]] void
faultStoreBeyondMemory(std::uint64_t addr)
{
    AMNESIAC_FATAL("store beyond data memory (addr " +
                   std::to_string(addr) + ")");
}

[[noreturn, gnu::cold, gnu::noinline]] void
faultAmnesicOpcode(Opcode op)
{
    AMNESIAC_FATAL(std::string("classic execution cannot handle "
                               "amnesic opcode '") +
                   std::string(mnemonic(op)) + "'");
}

[[noreturn, gnu::cold, gnu::noinline]] void
faultInstructionLimit(const std::string &program)
{
    AMNESIAC_FATAL("program '" + program +
                   "' exceeded the instruction limit — "
                   "likely an infinite loop");
}

}  // namespace

Machine::Machine(const Program &program, const EnergyModel &energy,
                 const HierarchyConfig &hierarchy_config,
                 const TimingConfig &timing)
    : _program(program), _energy(energy), _timing(makeTimingModel(timing)),
      _pipe(timing.backend == TimingBackend::Pipelined
                ? static_cast<PipelinedTimingModel *>(_timing.get())
                : nullptr),
      _decoded(_program, _energy, *_timing), _hierarchy(hierarchy_config),
      _memory(program.dataImage)
{
    AMNESIAC_ASSERT(!program.code.empty(), "empty program");
}

void
Machine::run(std::uint64_t max_instrs)
{
    // Resolve the observer and the timing backend once: each
    // configuration gets a loop with the unused callback sites
    // compiled out.
    switch ((_pipe ? 2u : 0u) | (_observer ? 1u : 0u)) {
      case 0: runLoop<false, false>(max_instrs); break;
      case 1: runLoop<true,  false>(max_instrs); break;
      case 2: runLoop<false, true>(max_instrs); break;
      case 3: runLoop<true,  true>(max_instrs); break;
    }
}

template <bool HasObserver, bool Pipelined>
void
Machine::runLoop(std::uint64_t max_instrs)
{
    const DecodedInstr *dcode = _decoded.data();
    const Instruction *code = _program.code.data();
    const auto code_size = static_cast<std::uint32_t>(_program.code.size());
    std::uint64_t executed = 0;
    while (!_halted) {
        // Same budget as the historical `if (++executed > max_instrs)`
        // pre-step check: max_instrs dispatches are allowed (including
        // the halting one), the fatal fires before dispatch max+1.
        if (executed >= max_instrs)
            faultInstructionLimit(_program.name);
        ++executed;
        AMNESIAC_ASSERT(_pc < code_size, "pc out of range");
        const std::uint32_t pc = _pc;
        const DecodedInstr &d = dcode[pc];
        const Instruction &instr = code[pc];
        if (HasObserver && _observer)
            _observer->onExec(*this, pc, instr);
        if (d.kind == DispatchKind::Generic) {
            // The slow path owns stats + diagnostics; it is outside the
            // plain in-order stream, so the pipeline state resets.
            if constexpr (Pipelined)
                _pipe->onPipelineBreak();
            execOne(instr);
            continue;
        }
        ++_stats.dynInstrs;
        ++_stats.perCategory[d.cat];
        std::uint32_t next_pc = pc + 1;
        switch (d.kind) {
          case DispatchKind::Nop:
            _stats.energy.nonMemNj += d.nj;
            _stats.cycles += d.lat;
            break;
// Register indices were validated at decode time (else the instruction
// would have decoded Generic), so the fast cases index _regs directly.
// evalAlu with a compile-time opcode folds to the one operation.
#define AMNESIAC_ALU_CASE(KIND, OP)                                          \
          case DispatchKind::KIND:                                           \
            _regs[d.rd] =                                                    \
                evalAlu(Opcode::OP, _regs[d.rs1], _regs[d.rs2], d.imm);      \
            _stats.energy.nonMemNj += d.nj;                                  \
            _stats.cycles += d.lat;                                          \
            break;
          AMNESIAC_ALU_CASE(Li, Li)
          AMNESIAC_ALU_CASE(Mov, Mov)
          AMNESIAC_ALU_CASE(Add, Add)
          AMNESIAC_ALU_CASE(Sub, Sub)
          AMNESIAC_ALU_CASE(Mul, Mul)
          AMNESIAC_ALU_CASE(Divu, Divu)
          AMNESIAC_ALU_CASE(And, And)
          AMNESIAC_ALU_CASE(Or, Or)
          AMNESIAC_ALU_CASE(Xor, Xor)
          AMNESIAC_ALU_CASE(Shl, Shl)
          AMNESIAC_ALU_CASE(Shr, Shr)
          AMNESIAC_ALU_CASE(Fadd, Fadd)
          AMNESIAC_ALU_CASE(Fsub, Fsub)
          AMNESIAC_ALU_CASE(Fmul, Fmul)
          AMNESIAC_ALU_CASE(Fdiv, Fdiv)
#undef AMNESIAC_ALU_CASE
          case DispatchKind::Ld: {
            std::uint64_t addr = _regs[d.rs1] +
                                 static_cast<std::uint64_t>(d.imm);
            if (addr % 8 != 0)
                faultUnaligned(_pc);
            HierarchyAccess access = _hierarchy.read(addr);
            std::uint64_t word = addr / 8;
            if (word >= _memory.size())
                faultLoadBeyondMemory(addr);
            std::uint64_t value = _memory[word];
            _regs[d.rd] = value;
            ++_stats.dynLoads;
            _stats.energy.loadNj += _energy.loadEnergy(access.servicedBy);
            _stats.cycles += _energy.loadLatency(access.servicedBy);
            chargeWritebacks(access);
            if (HasObserver && _observer)
                _observer->onLoad(*this, pc, addr, value,
                                  access.servicedBy);
            break;
          }
          case DispatchKind::St: {
            std::uint64_t addr = _regs[d.rs1] +
                                 static_cast<std::uint64_t>(d.imm);
            if (addr % 8 != 0)
                faultUnaligned(_pc);
            std::uint64_t value = _regs[d.rs2];
            std::uint64_t word = addr / 8;
            if (word >= _memory.size())
                faultStoreBeyondMemory(addr);
            _memory[word] = value;
            HierarchyAccess access = _hierarchy.write(addr);
            ++_stats.dynStores;
            _stats.energy.storeNj += _energy.storeEnergy(access.servicedBy);
            _stats.cycles += _energy.storeLatency(access.servicedBy);
            chargeWritebacks(access);
            if (HasObserver && _observer)
                _observer->onStore(*this, pc, addr, value,
                                   access.servicedBy);
            break;
          }
          case DispatchKind::Beq:
            if (_regs[d.rs1] == _regs[d.rs2])
                next_pc = d.target;
            _stats.energy.nonMemNj += d.nj;
            _stats.cycles += d.lat;
            break;
          case DispatchKind::Bne:
            if (_regs[d.rs1] != _regs[d.rs2])
                next_pc = d.target;
            _stats.energy.nonMemNj += d.nj;
            _stats.cycles += d.lat;
            break;
          case DispatchKind::Blt:
            if (static_cast<std::int64_t>(_regs[d.rs1]) <
                static_cast<std::int64_t>(_regs[d.rs2]))
                next_pc = d.target;
            _stats.energy.nonMemNj += d.nj;
            _stats.cycles += d.lat;
            break;
          case DispatchKind::Jmp:
            next_pc = d.target;
            _stats.energy.nonMemNj += d.nj;
            _stats.cycles += d.lat;
            break;
          case DispatchKind::Halt:
            _halted = true;
            _stats.energy.nonMemNj += d.nj;
            _stats.cycles += d.lat;
            break;
          case DispatchKind::Amnesic:
            // The §3.3 scheduler charges its own costs (probe, slice
            // replay, fallback load); the pipeline treats the whole
            // episode as a break in the plain in-order stream.
            if constexpr (Pipelined)
                _pipe->onPipelineBreak();
            execAmnesic(instr);
            continue;  // execAmnesic manages pc itself
          case DispatchKind::Generic:
            AMNESIAC_PANIC("runLoop: Generic handled above");
        }
        if constexpr (Pipelined)
            _pipe->onRetire(_stats, d, pc, next_pc);
        _pc = next_pc;
    }
}

bool
Machine::step()
{
    if (_halted)
        return false;
    AMNESIAC_ASSERT(_pc < _program.code.size(), "pc out of range");
    const Instruction &instr = _program.code[_pc];
    if (_observer)
        _observer->onExec(*this, _pc, instr);
    const std::uint32_t pc_before = _pc;
    execOne(instr);
    if (_pipe) {
        // Mirror the run loop's event order exactly: fast-path kinds
        // retire with their resolved successor, amnesic episodes and
        // slow-path instructions break the pipeline. (onPipelineBreak
        // only drops cross-instruction hazard state, so break-before
        // and break-after the episode are equivalent.)
        const DecodedInstr &d = _decoded.at(pc_before);
        if (d.kind == DispatchKind::Amnesic ||
            d.kind == DispatchKind::Generic)
            _pipe->onPipelineBreak();
        else
            _pipe->onRetire(_stats, d, pc_before, _pc);
    }
    return !_halted;
}

void
Machine::execAmnesic(const Instruction &instr)
{
    faultAmnesicOpcode(instr.op);
}

void
Machine::writeReg(Reg r, std::uint64_t value)
{
    AMNESIAC_ASSERT(r < kNumRegs, "register index out of range");
    _regs[r] = value;
}

std::uint64_t
Machine::readReg(Reg r) const
{
    AMNESIAC_ASSERT(r < kNumRegs, "register index out of range");
    return _regs[r];
}

std::uint64_t
Machine::effectiveAddr(const Instruction &instr) const
{
    std::uint64_t addr = readReg(instr.rs1) +
                         static_cast<std::uint64_t>(instr.imm);
    if (addr % 8 != 0)
        faultUnaligned(_pc);
    return addr;
}

std::uint64_t
Machine::memRead(std::uint64_t addr) const
{
    std::uint64_t word = addr / 8;
    if (word >= _memory.size())
        faultLoadBeyondMemory(addr);
    return _memory[word];
}

void
Machine::memWrite(std::uint64_t addr, std::uint64_t value)
{
    std::uint64_t word = addr / 8;
    if (word >= _memory.size())
        faultStoreBeyondMemory(addr);
    _memory[word] = value;
}

std::uint64_t
Machine::performLoad(std::uint32_t pc, const Instruction &instr)
{
    std::uint64_t addr = effectiveAddr(instr);
    HierarchyAccess access = _hierarchy.read(addr);
    std::uint64_t value = memRead(addr);
    writeReg(instr.rd, value);

    ++_stats.dynLoads;
    chargeEnergy(_energy.loadEnergy(access.servicedBy),
                 &EnergyBreakdown::loadNj);
    chargeCycles(_timing->loadLatency(_energy, access.servicedBy));
    chargeWritebacks(access);
    if (_observer)
        _observer->onLoad(*this, pc, addr, value, access.servicedBy);
    return value;
}

void
Machine::chargeNonMem(InstrCategory cat)
{
    chargeEnergy(_energy.instrEnergy(cat), &EnergyBreakdown::nonMemNj);
    chargeCycles(_timing->instrLatency(_energy, cat));
}

void
Machine::chargeWritebacks(const HierarchyAccess &access)
{
    if (access.l1Writeback) {
        ++_stats.l2WritebackInstalls;
        chargeEnergy(_energy.writebackEnergy(MemLevel::L2),
                     &EnergyBreakdown::storeNj);
    }
    if (access.l2Writeback)
        chargeEnergy(_energy.writebackEnergy(MemLevel::Memory),
                     &EnergyBreakdown::storeNj);
}

void
Machine::chargeEnergy(double nj, double EnergyBreakdown::*bucket)
{
    _stats.energy.*bucket += nj;
}

void
Machine::execOne(const Instruction &instr)
{
    ++_stats.dynInstrs;
    ++_stats.perCategory[static_cast<std::size_t>(instr.category())];
    std::uint32_t next_pc = _pc + 1;

    switch (instr.op) {
      case Opcode::Nop:
        chargeNonMem(InstrCategory::Nop);
        break;
      case Opcode::Li:
      case Opcode::Mov:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Divu:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
        writeReg(instr.rd,
                 evalAlu(instr.op, readReg(instr.rs1), readReg(instr.rs2),
                         instr.imm));
        chargeNonMem(instr.category());
        break;
      case Opcode::Ld:
        performLoad(_pc, instr);
        break;
      case Opcode::St: {
        std::uint64_t addr = effectiveAddr(instr);
        std::uint64_t value = readReg(instr.rs2);
        memWrite(addr, value);
        HierarchyAccess access = _hierarchy.write(addr);
        ++_stats.dynStores;
        chargeEnergy(_energy.storeEnergy(access.servicedBy),
                     &EnergyBreakdown::storeNj);
        chargeCycles(_timing->storeLatency(_energy, access.servicedBy));
        chargeWritebacks(access);
        if (_observer)
            _observer->onStore(*this, _pc, addr, value,
                               access.servicedBy);
        break;
      }
      case Opcode::Beq:
        if (readReg(instr.rs1) == readReg(instr.rs2))
            next_pc = instr.target;
        chargeNonMem(InstrCategory::Branch);
        break;
      case Opcode::Bne:
        if (readReg(instr.rs1) != readReg(instr.rs2))
            next_pc = instr.target;
        chargeNonMem(InstrCategory::Branch);
        break;
      case Opcode::Blt:
        if (static_cast<std::int64_t>(readReg(instr.rs1)) <
            static_cast<std::int64_t>(readReg(instr.rs2)))
            next_pc = instr.target;
        chargeNonMem(InstrCategory::Branch);
        break;
      case Opcode::Jmp:
        next_pc = instr.target;
        chargeNonMem(InstrCategory::Jump);
        break;
      case Opcode::Halt:
        _halted = true;
        chargeNonMem(InstrCategory::Jump);
        break;
      case Opcode::Rcmp:
      case Opcode::Rec:
      case Opcode::Rtn:
        execAmnesic(instr);
        return;  // execAmnesic manages pc itself
      default:
        AMNESIAC_PANIC("execOne: bad opcode");
    }
    _pc = next_pc;
}

}  // namespace amnesiac
