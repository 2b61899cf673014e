/**
 * @file
 * Pluggable cycle-accounting backends (ROADMAP item 5). Every decision
 * about how many cycles a dynamic instruction costs routes through a
 * TimingModel:
 *
 *  - ScalarTimingModel reproduces the historical implicit model
 *    bit-for-bit: one instruction in flight, per-category latencies,
 *    blocking loads. It is the golden reference the pre-refactor
 *    SimStats goldens pin.
 *
 *  - PipelinedTimingModel layers a 5-stage in-order pipeline
 *    (IF/ID/EX/MEM/WB) on top of the same base latencies: the scalar
 *    per-instruction charge models the instruction's occupancy of its
 *    limiting stage, and the pipeline adds *hazard* cycles on top —
 *    load-use interlocks, a one-bubble penalty for unconditional jumps
 *    (the target resolves in ID), and a front-end flush per
 *    mispredicted conditional branch, with the direction predictor
 *    pluggable behind src/timing/predictor.h.
 *
 * The additive formulation is deliberate and is the backend's pinned
 * contract: both backends charge identical energy and identical base
 * latencies, so for any run
 *
 *     pipelined.cycles == scalar.cycles + pipelined.hazardCycles()
 *     pipelined.energy == scalar.energy          (bit-identical)
 *
 * and the architectural execution (instruction stream, register file,
 * memory image, amnesic decisions) is invariant across backends —
 * timing is an observer of retirement, never an input to execution.
 * That gives the cross-backend monotonicity and energy-invariance
 * properties tests/timing_test.cc pins, at the cost of not modeling
 * multi-issue overlap (which an in-order single-issue pipeline does not
 * have for the back-to-back latencies already charged).
 */

#ifndef AMNESIAC_TIMING_TIMING_H
#define AMNESIAC_TIMING_TIMING_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "energy/epi.h"
#include "sim/decoded_program.h"
#include "sim/stats.h"
#include "timing/predictor.h"

namespace amnesiac {

/** Which timing backend a machine charges cycles with. */
enum class TimingBackend : std::uint8_t {
    Scalar,     ///< the historical in-order scalar model (golden)
    Pipelined,  ///< 5-stage in-order pipeline with hazard accounting
};

/** Canonical lowercase name ("scalar" / "pipelined"). */
std::string_view timingBackendName(TimingBackend backend);

/** Parse a canonical name; false (and `out` untouched) on failure. */
bool parseTimingBackend(const std::string &name, TimingBackend &out);

/** Everything configurable about cycle accounting. */
struct TimingConfig
{
    TimingBackend backend = TimingBackend::Scalar;

    // --- pipelined-backend knobs (ignored by scalar) ---
    /** Branch-direction predictor the pipeline consults. */
    PredictorKind predictor = PredictorKind::Bimodal;
    /** log2 entries of the bimodal/gshare counter table. */
    unsigned predictorLogEntries = 10;
    /** Interlock bubbles when an instruction consumes the value of the
     * immediately preceding load (classic MEM→EX forwarding gap). */
    std::uint32_t loadUseStallCycles = 1;
    /** Front-end flush depth on a mispredicted conditional branch
     * (fetch/decode/execute stages squashed). */
    std::uint32_t mispredictPenaltyCycles = 3;
    /** Bubble for an unconditional jump (target resolves in ID). */
    std::uint32_t jumpBubbleCycles = 1;
};

/**
 * The cycle-accounting strategy of one Machine. Two call
 * surfaces:
 *
 *  - Base-latency queries (instrLatency / loadLatency / storeLatency):
 *    how long one instruction occupies its limiting resource. Both
 *    backends delegate to the EnergyModel's Table 3 latencies — that
 *    shared base is what makes the additive contract above exact.
 *    DecodedProgram resolves its pre-decoded latencies through these,
 *    and the machine's slow-path charges route here too.
 *
 *  - Retirement events (onRetire / onPipelineBreak): called by the
 *    machine as instructions retire so a backend can account hazards.
 *    The scalar backend ignores them (and the machine's scalar fast
 *    path compiles the calls out entirely).
 *
 * A TimingModel is machine-local mutable state (predictor tables,
 * pending-load tracking); one instance must never be shared between
 * machines.
 */
class TimingModel
{
  public:
    virtual ~TimingModel() = default;

    virtual TimingBackend backend() const = 0;

    /** Cycles of one non-memory instruction (base latency). */
    virtual std::uint32_t instrLatency(const EnergyModel &energy,
                                       InstrCategory cat) const
    {
        return energy.instrLatency(cat);
    }

    /** Cycles of a load serviced at `level` (base latency). */
    virtual std::uint32_t loadLatency(const EnergyModel &energy,
                                      MemLevel level) const
    {
        return energy.loadLatency(level);
    }

    /** Cycles charged to a store serviced at `level` (base latency). */
    virtual std::uint32_t storeLatency(const EnergyModel &energy,
                                       MemLevel level) const
    {
        return energy.storeLatency(level);
    }

    /**
     * A fast-path instruction retired: `d` is its predecoded form,
     * `pc` its static index, `next_pc` the resolved successor (so
     * branch direction is `next_pc != pc + 1`). Called after the base
     * charge has landed in `stats`; implementations add hazard cycles.
     */
    virtual void onRetire(SimStats &stats, const DecodedInstr &d,
                          std::uint32_t pc, std::uint32_t next_pc)
    {
        (void)stats; (void)d; (void)pc; (void)next_pc;
    }

    /**
     * The in-order instruction stream broke out of the plain pipeline:
     * an amnesic opcode (RCMP/REC/RTN, whose slice traversal is charged
     * separately by the §3.3 scheduler) or a slow-path instruction is
     * executing. Implementations drop cross-instruction hazard state;
     * predictor tables persist (a flush does not untrain a predictor).
     */
    virtual void onPipelineBreak() {}

    /** Forget all cross-run state (fresh-machine semantics). */
    virtual void reset() {}
};

/** The golden reference: base latencies only, no hazard events. */
class ScalarTimingModel final : public TimingModel
{
  public:
    TimingBackend backend() const override
    {
        return TimingBackend::Scalar;
    }
};

/**
 * 5-stage in-order pipeline hazard accounting (see file header for the
 * additive contract). Hazard rules, all charged at retirement:
 *
 *  - load-use: the retiring instruction reads the destination register
 *    of the immediately preceding retired load →
 *    `loadUseStallCycles` bubbles (MEM→EX forwarding gap);
 *  - conditional branch (BEQ/BNE/BLT): the predictor is consulted and
 *    trained; a wrong direction costs `mispredictPenaltyCycles` of
 *    squashed front-end work;
 *  - unconditional jump: `jumpBubbleCycles` (target known in ID);
 *  - HALT drains the pipeline without penalty; amnesic opcodes and
 *    slow-path instructions break the pipeline (onPipelineBreak) and
 *    charge whatever the §3.3 scheduler or slow path charges.
 */
class PipelinedTimingModel final : public TimingModel
{
  public:
    explicit PipelinedTimingModel(const TimingConfig &config)
        : _config(config),
          _predictor(
              makePredictor(config.predictor, config.predictorLogEntries))
    {
    }

    TimingBackend backend() const override
    {
        return TimingBackend::Pipelined;
    }

    const TimingConfig &config() const { return _config; }
    const Predictor &predictor() const { return *_predictor; }

    /** Register-read mask of a fast-path kind (bit 0 = rs1, bit 1 =
     * rs2), mirroring exactly what the machine's dispatch cases read. */
    static std::uint8_t readMask(DispatchKind kind)
    {
        switch (kind) {
          case DispatchKind::Nop:
          case DispatchKind::Li:
          case DispatchKind::Jmp:
          case DispatchKind::Halt:
            return 0;
          case DispatchKind::Mov:
          case DispatchKind::Ld:
            return 1;
          default:  // ALU / St / conditional branches read rs1 and rs2
            return 3;
        }
    }

    void onRetire(SimStats &stats, const DecodedInstr &d,
                  std::uint32_t pc, std::uint32_t next_pc) override
    {
        // Load-use interlock against the immediately preceding load.
        if (_pendingLoadRd >= 0) {
            std::uint8_t reads = readMask(d.kind);
            bool uses =
                ((reads & 1) &&
                 d.rs1 == static_cast<Reg>(_pendingLoadRd)) ||
                ((reads & 2) && d.rs2 == static_cast<Reg>(_pendingLoadRd));
            if (uses) {
                ++stats.loadUseStalls;
                stats.loadUseStallCycles += _config.loadUseStallCycles;
                stats.cycles += _config.loadUseStallCycles;
            }
        }
        _pendingLoadRd =
            d.kind == DispatchKind::Ld ? static_cast<int>(d.rd) : -1;

        switch (d.kind) {
          case DispatchKind::Beq:
          case DispatchKind::Bne:
          case DispatchKind::Blt: {
            bool taken = next_pc != pc + 1;
            bool predicted = _predictor->predictTaken(pc);
            _predictor->update(pc, taken);
            if (predicted == taken) {
                ++stats.predictorHits;
            } else {
                ++stats.predictorMisses;
                ++stats.mispredictFlushes;
                stats.mispredictFlushCycles +=
                    _config.mispredictPenaltyCycles;
                stats.cycles += _config.mispredictPenaltyCycles;
            }
            break;
          }
          case DispatchKind::Jmp:
            ++stats.controlBubbles;
            stats.controlBubbleCycles += _config.jumpBubbleCycles;
            stats.cycles += _config.jumpBubbleCycles;
            break;
          default:
            break;
        }
    }

    void onPipelineBreak() override { _pendingLoadRd = -1; }

    void reset() override
    {
        _pendingLoadRd = -1;
        _predictor->reset();
    }

  private:
    TimingConfig _config;
    std::unique_ptr<Predictor> _predictor;
    /** Destination register of the immediately preceding retired load,
     * or -1 when the previous instruction was not a load. */
    int _pendingLoadRd = -1;
};

/** Factory keyed on TimingConfig::backend. */
std::unique_ptr<TimingModel> makeTimingModel(const TimingConfig &config);

}  // namespace amnesiac

#endif  // AMNESIAC_TIMING_TIMING_H
