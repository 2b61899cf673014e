/**
 * @file
 * Predecoded program view: the per-static-instruction side-structure the
 * interpreter's fast path dispatches on.
 *
 * Decoding happens once per Machine and folds away everything
 * the seed interpreter recomputed per *dynamic* instruction: the
 * accounting category, the EnergyModel energy/latency switch lookups,
 * and the register-index validity checks. The run loop then dispatches
 * on a dense DispatchKind with nothing but array reads on the hot path.
 *
 * Instructions the fast path must not touch (out-of-range register
 * operands, unknown opcode bytes) decode to DispatchKind::Generic and
 * are routed through Machine::execOne, which reproduces the
 * machine's historical diagnostics exactly — predecoding never turns a
 * runtime fatal into a construction-time one.
 */

#ifndef AMNESIAC_SIM_DECODED_PROGRAM_H
#define AMNESIAC_SIM_DECODED_PROGRAM_H

#include <cstdint>
#include <vector>

#include "energy/epi.h"
#include "isa/program.h"

namespace amnesiac {

class TimingModel;

/**
 * Dense dispatch kind. One enumerator per fast-path opcode, plus:
 *  - Amnesic: Rcmp/Rec/Rtn, delegated to Machine::execAmnesic (fatal
 *    on a plain Machine, exactly like execOne);
 *  - Generic: anything whose execution must go through the slow path.
 */
enum class DispatchKind : std::uint8_t {
    Nop, Li, Mov, Add, Sub, Mul, Divu, And, Or, Xor, Shl, Shr,
    Fadd, Fsub, Fmul, Fdiv, Ld, St, Beq, Bne, Blt, Jmp, Halt,
    Amnesic,
    Generic,
};

/** One predecoded instruction (fits the fast loop's working set). */
struct DecodedInstr
{
    DispatchKind kind = DispatchKind::Generic;
    /** InstrCategory index (the perCategory accounting slot). */
    std::uint8_t cat = 0;
    Reg rd = 0;
    Reg rs1 = 0;
    Reg rs2 = 0;
    /** Resolved non-memory latency, cycles (0 for Ld/St: those charge
     * per service level at access time). */
    std::uint32_t lat = 0;
    /** Resolved branch/jump target (absolute instruction index). */
    std::uint32_t target = 0;
    std::int64_t imm = 0;
    /** Resolved non-memory energy, nJ — the exact double instrEnergy()
     * would return, so accumulation stays bit-identical to the seed. */
    double nj = 0.0;
};

/**
 * The decoded side-structure. Built once from a Program, the machine's
 * EnergyModel and its TimingModel (base latencies resolve through the
 * backend — src/timing); immutable afterwards (the machine's program is
 * immutable too, so the three can never diverge).
 */
class DecodedProgram
{
  public:
    DecodedProgram(const Program &program, const EnergyModel &energy,
                   const TimingModel &timing);

    const DecodedInstr &at(std::uint32_t pc) const { return _code[pc]; }
    const DecodedInstr *data() const { return _code.data(); }
    std::size_t size() const { return _code.size(); }

  private:
    std::vector<DecodedInstr> _code;
};

}  // namespace amnesiac

#endif  // AMNESIAC_SIM_DECODED_PROGRAM_H
