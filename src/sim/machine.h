/**
 * @file
 * Classic-execution machine: a thin facade over the shared
 * ExecutionEngine with no hooks installed, so any amnesic opcode is a
 * fatal error here. The amnesic machine (src/core) wraps the same
 * engine with hooks implementing RCMP / REC / RTN.
 */

#ifndef AMNESIAC_SIM_MACHINE_H
#define AMNESIAC_SIM_MACHINE_H

#include "sim/execution_engine.h"

namespace amnesiac {

/** Observers attach to the engine; the historical name is kept for the
 * profiling/validation passes built on it. */
using MachineObserver = ExecutionObserver;

/**
 * Classic machine. Executes the main code region on the shared engine;
 * encountering any amnesic opcode is a fatal error (AmnesicMachine
 * installs the hooks). Timing model: one instruction in flight,
 * per-category latencies, blocking loads.
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
            const TimingConfig &timing = {})
        : _engine(program, energy, hierarchy_config, nullptr, timing)
    {
    }
    virtual ~Machine() = default;

    /**
     * Run until HALT.
     * @param max_instrs fatal runaway guard
     */
    void run(std::uint64_t max_instrs = 1ull << 32)
    {
        _engine.run(max_instrs);
    }

    /** Execute a single instruction; false once halted. */
    bool step() { return _engine.step(); }

    bool halted() const { return _engine.halted(); }
    std::uint32_t pc() const { return _engine.pc(); }

    const SimStats &stats() const { return _engine.stats(); }
    const MemoryHierarchy &hierarchy() const { return _engine.hierarchy(); }
    const EnergyModel &energyModel() const { return _engine.energyModel(); }
    const Program &program() const { return _engine.program(); }
    const TimingModel &timingModel() const { return _engine.timingModel(); }
    const TimingConfig &timingConfig() const
    {
        return _engine.timingConfig();
    }

    /** Architectural register value. */
    std::uint64_t reg(Reg r) const { return _engine.reg(r); }

    /** Functional memory word at a byte address (no cache effects). */
    std::uint64_t peekWord(std::uint64_t addr) const
    {
        return _engine.peekWord(addr);
    }

    /** Attach at most one observer (nullptr detaches). */
    void setObserver(MachineObserver *observer)
    {
        _engine.setObserver(observer);
    }

    /**
     * Pure ALU evaluation of a sliceable opcode. Shared by execution,
     * the dependence tracker's mirroring, and dry-run slice evaluation.
     */
    static std::uint64_t
    evalAlu(Opcode op, std::uint64_t a, std::uint64_t b, std::int64_t imm)
    {
        return ExecutionEngine::evalAlu(op, a, b, imm);
    }

  protected:
    /** Extension-point constructor: subclasses install their hooks. */
    Machine(const Program &program, const EnergyModel &energy,
            const HierarchyConfig &hierarchy_config, ExecutionHooks *hooks,
            const TimingConfig &timing = {})
        : _engine(program, energy, hierarchy_config, hooks, timing)
    {
    }

    ExecutionEngine &engine() { return _engine; }
    const ExecutionEngine &engine() const { return _engine; }

  private:
    ExecutionEngine _engine;
};

}  // namespace amnesiac

#endif  // AMNESIAC_SIM_MACHINE_H
