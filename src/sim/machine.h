/**
 * @file
 * The one interpreter core shared by every execution mode: an in-order
 * scalar functional + timing + energy fetch/decode/execute/memory loop
 * for the target ISA over the Table 3 memory hierarchy.
 *
 * Execution modes differ only in how they handle the amnesic opcodes
 * (RCMP / REC / RTN), which the machine routes through one virtual,
 * execAmnesic: a plain Machine's version is a fatal error (classic
 * execution), the amnesic machine (src/core) derives from Machine and
 * overrides it with the §3.3 scheduler. Register, memory, timing and
 * stats plumbing exists exactly once, here.
 */

#ifndef AMNESIAC_SIM_MACHINE_H
#define AMNESIAC_SIM_MACHINE_H

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "energy/epi.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "sim/decoded_program.h"
#include "sim/stats.h"
#include "timing/timing.h"
#include "util/logging.h"

namespace amnesiac {

class Machine;

/**
 * Passive instrumentation hook (the role Pin plays in the paper's
 * toolchain, §4). Callbacks may inspect the machine but never mutate
 * architectural state.
 */
class ExecutionObserver
{
  public:
    virtual ~ExecutionObserver() = default;

    /** Called before an instruction executes (registers still hold the
     * instruction's input values). */
    virtual void onExec(const Machine &m, std::uint32_t pc,
                        const Instruction &instr)
    {
        (void)m; (void)pc; (void)instr;
    }

    /** Called after a load is serviced. */
    virtual void onLoad(const Machine &m, std::uint32_t pc,
                        std::uint64_t addr, std::uint64_t value,
                        MemLevel serviced)
    {
        (void)m; (void)pc; (void)addr; (void)value; (void)serviced;
    }

    /** Called after a store retires. */
    virtual void onStore(const Machine &m, std::uint32_t pc,
                         std::uint64_t addr, std::uint64_t value,
                         MemLevel serviced)
    {
        (void)m; (void)pc; (void)addr; (void)value; (void)serviced;
    }
};

/**
 * The interpreter. Timing model: one instruction in flight,
 * per-category latencies, blocking loads. A plain Machine executes
 * classic binaries: encountering any amnesic opcode is a fatal error.
 * AmnesicMachine (src/core) extends it with the §3.2 structures and
 * overrides execAmnesic with the §3.3 scheduler.
 *
 * The mutation helpers (writeReg, charge*, setPc, ...) are protected:
 * they are the API the subclass builds amnesic semantics from. A
 * machine is confined to one thread; distinct machines share nothing
 * and may run concurrently (see util/thread_pool.h).
 */
class Machine
{
  public:
    /**
     * @param program the binary to execute (copied: the machine owns
     *        its program, so callers may pass temporaries)
     * @param energy cost model
     * @param hierarchy_config data-cache geometry
     * @param timing cycle-accounting backend (src/timing); the default
     *        scalar backend reproduces the historical model exactly
     */
    Machine(const Program &program, const EnergyModel &energy,
            const HierarchyConfig &hierarchy_config = {},
            const TimingConfig &timing = {});
    virtual ~Machine() = default;
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Run until HALT.
     *
     * Dispatches through a predecoded fast loop specialized once for
     * the attached observer and the timing backend, so the bare classic
     * and amnesic configurations pay no per-instruction null checks or
     * virtual calls (amnesic opcodes alone go through execAmnesic).
     * Observable behavior is identical to calling step() until halted.
     *
     * @param max_instrs fatal runaway guard: at most max_instrs
     *        instruction dispatches are allowed (including the halting
     *        instruction); the run aborts before dispatching
     *        instruction max_instrs + 1.
     */
    void run(std::uint64_t max_instrs = 1ull << 32);

    /** Execute a single instruction; false once halted. */
    bool step();

    bool halted() const { return _halted; }
    std::uint32_t pc() const { return _pc; }

    const SimStats &stats() const { return _stats; }
    const MemoryHierarchy &hierarchy() const { return _hierarchy; }
    const EnergyModel &energyModel() const { return _energy; }
    const Program &program() const { return _program; }
    const TimingModel &timingModel() const { return *_timing; }

    /** Architectural register value. */
    std::uint64_t reg(Reg r) const { return readReg(r); }

    /** Functional memory word at a byte address (no cache effects). */
    std::uint64_t peekWord(std::uint64_t addr) const { return memRead(addr); }

    /** Attach at most one observer (nullptr detaches). */
    void setObserver(ExecutionObserver *observer) { _observer = observer; }

    /** Mutable hierarchy for placement-only fault injection (testing
     * API; never used by production paths). */
    MemoryHierarchy &mutableHierarchy() { return _hierarchy; }

    /**
     * Pure ALU evaluation of a sliceable opcode. Shared by execution,
     * the dependence tracker's mirroring, and dry-run slice evaluation.
     * Defined inline below so call sites with a compile-time opcode
     * (the predecoded dispatch loop) fold the switch away entirely.
     */
    static std::uint64_t evalAlu(Opcode op, std::uint64_t a,
                                 std::uint64_t b, std::int64_t imm);

  protected:
    /**
     * Execute one amnesic opcode (Rcmp/Rec/Rtn). The override owns the
     * instruction's complete semantics: it advances the pc itself and
     * does its own accounting through the charge helpers below. The
     * base version is classic execution's fatal error.
     */
    virtual void execAmnesic(const Instruction &instr);

    // --- state-mutation API for the amnesic subclass ---
    void writeReg(Reg r, std::uint64_t value);
    std::uint64_t readReg(Reg r) const;
    /** Effective address of a memory instruction; validates alignment. */
    std::uint64_t effectiveAddr(const Instruction &instr) const;
    /** Functional read against flat memory. */
    std::uint64_t memRead(std::uint64_t addr) const;
    /** Perform a full load (hierarchy + energy + stats + observer). */
    std::uint64_t performLoad(std::uint32_t pc, const Instruction &instr);

    /** Charge a non-memory instruction's energy/latency. */
    void chargeNonMem(InstrCategory cat);
    /**
     * Charge the non-memory instruction at static `pc` using its
     * predecoded cost — bit-identical to chargeNonMem(categoryOf(op))
     * but without the per-charge table lookups. Falls back to the
     * generic path (keeping the canonical Load/Store panic) when the
     * instruction did not decode to a flat cost.
     */
    void chargeNonMemAt(std::uint32_t pc)
    {
        const DecodedInstr &d = _decoded.at(pc);
        auto cat = static_cast<InstrCategory>(d.cat);
        if (d.kind == DispatchKind::Generic || cat == InstrCategory::Load ||
            cat == InstrCategory::Store) {
            chargeNonMem(_program.code[pc].category());
            return;
        }
        _stats.energy.nonMemNj += d.nj;
        _stats.cycles += d.lat;
    }
    /** Accounting category of the instruction at static `pc`. */
    InstrCategory decodedCategory(std::uint32_t pc) const
    {
        const DecodedInstr &d = _decoded.at(pc);
        if (d.kind == DispatchKind::Generic)
            return _program.code[pc].category();
        return static_cast<InstrCategory>(d.cat);
    }
    /** Charge an explicit amount into a breakdown bucket. */
    void chargeEnergy(double nj, double EnergyBreakdown::*bucket);
    void chargeCycles(std::uint64_t cycles) { _stats.cycles += cycles; }

    SimStats &mutableStats() { return _stats; }
    void setPc(std::uint32_t pc) { _pc = pc; }

  private:
    void execOne(const Instruction &instr);
    void memWrite(std::uint64_t addr, std::uint64_t value);
    /** Charge writeback traffic of one hierarchy access. */
    void chargeWritebacks(const HierarchyAccess &access);

    /**
     * The predecoded run loop, specialized at run() entry for whether
     * an observer is attached and for the timing backend, so the
     * common configurations carry no dead per-instruction branches —
     * in particular the scalar fast path compiles out the
     * retirement-event calls entirely.
     */
    template <bool HasObserver, bool Pipelined>
    void runLoop(std::uint64_t max_instrs);

    Program _program;
    EnergyModel _energy;
    /** The cycle-accounting backend; owned, machine-local state. */
    std::unique_ptr<TimingModel> _timing;
    /** Devirtualized view of _timing when the backend is pipelined
     * (the hot loop calls its final methods directly); else nullptr. */
    PipelinedTimingModel *_pipe = nullptr;
    DecodedProgram _decoded;
    MemoryHierarchy _hierarchy;
    std::array<std::uint64_t, kNumRegs> _regs{};
    std::vector<std::uint64_t> _memory;
    std::uint32_t _pc = 0;
    bool _halted = false;
    SimStats _stats;
    ExecutionObserver *_observer = nullptr;
};

inline std::uint64_t
Machine::evalAlu(Opcode op, std::uint64_t a, std::uint64_t b,
                 std::int64_t imm)
{
    auto fp = [](std::uint64_t bits) { return std::bit_cast<double>(bits); };
    auto fpBits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    switch (op) {
      case Opcode::Li:   return static_cast<std::uint64_t>(imm);
      case Opcode::Mov:  return a;
      case Opcode::Add:  return a + b;
      case Opcode::Sub:  return a - b;
      case Opcode::Mul:  return a * b;
      // Division by zero is defined as all-ones (no trap in this ISA).
      case Opcode::Divu: return b ? a / b : ~0ull;
      case Opcode::And:  return a & b;
      case Opcode::Or:   return a | b;
      case Opcode::Xor:  return a ^ b;
      case Opcode::Shl:  return a << (b & 63);
      case Opcode::Shr:  return a >> (b & 63);
      case Opcode::Fadd: return fpBits(fp(a) + fp(b));
      case Opcode::Fsub: return fpBits(fp(a) - fp(b));
      case Opcode::Fmul: return fpBits(fp(a) * fp(b));
      case Opcode::Fdiv: return fpBits(fp(a) / fp(b));
      default:
        AMNESIAC_PANIC("evalAlu: not an ALU opcode");
    }
}

}  // namespace amnesiac

#endif  // AMNESIAC_SIM_MACHINE_H
