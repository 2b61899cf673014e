/**
 * @file
 * The amnesic machine: a classic machine extended with the §3.2
 * microarchitecture (SFile/Renamer/Hist/IBuff) and the §3.3 scheduler
 * that resolves each RCMP into either a fallback load or a traversal of
 * the embedded recomputation slice.
 */

#ifndef AMNESIAC_CORE_AMNESIC_MACHINE_H
#define AMNESIAC_CORE_AMNESIC_MACHINE_H

#include <vector>

#include "core/policy.h"
#include "core/uarch.h"
#include "sim/machine.h"

namespace amnesiac {

/**
 * Passive trace extension point of the amnesic scheduler (src/obs):
 * callbacks fire at every §3.3 decision and structure event so a tracer
 * can attribute behaviour to individual static RCMP sites. Like
 * ExecutionObserver, implementations must never mutate machine state —
 * the differential harness replays its corpus with and without an
 * attached tracer and requires bit-identical outcomes. All callbacks
 * default to no-ops; the machine pays a single null-pointer check per
 * amnesic opcode when no tracer is attached (the classic hot path is
 * untouched).
 *
 * Timestamps are simulated cycles, not wall clock, so the event stream
 * of a given (program, policy, config) is deterministic: byte-identical
 * across runs and independent of the experiment pipeline's `jobs`.
 */
class AmnesicTraceHooks
{
  public:
    virtual ~AmnesicTraceHooks() = default;

    /** Everything observable about one resolved RCMP instance. */
    struct RcmpEvent
    {
        std::uint64_t cycles = 0;   ///< simulated cycles at resolution
        std::uint32_t pc = 0;       ///< static RCMP site
        std::uint32_t sliceId = 0;
        std::uint64_t addr = 0;     ///< effective address of the swapped load
        MemLevel residence = MemLevel::L1;  ///< residence at decision time
        bool fired = false;         ///< recomputation ran to completion
        bool poisoned = false;      ///< slice poisoned: went straight to load
        bool histMissAbort = false; ///< traversal aborted, Condition-II unmet
        bool sfileAbort = false;    ///< traversal aborted, SFile overflow
        bool predictorUsed = false; ///< Policy::Predictor verdict below
        bool predictedMiss = false;
        std::uint32_t sliceInstrs = 0;  ///< slice instrs the traversal ran
        /** Charged-model energy of the load this site would perform at
         * `residence`, and of one full slice traversal — the realized
         * side of the compiler's Eld/Erc estimate. */
        double loadNj = 0.0;
        double sliceNj = 0.0;
        /** Decision-model (oracle rule) Erc, which may be pinned to a
         * different non-memory scale (Table 6); the rule's Eld side is
         * `loadNj`. */
        double estSliceNj = 0.0;
    };

    /** An RCMP resolved to either a recomputation or a fallback load. */
    virtual void onRcmp(const RcmpEvent &event) { (void)event; }

    /** Slice traversal is starting. */
    virtual void
    onSliceEntry(std::uint64_t cycles, std::uint32_t rcmp_pc,
                 std::uint32_t slice_id)
    {
        (void)cycles; (void)rcmp_pc; (void)slice_id;
    }

    /** Slice traversal finished (completed) or aborted mid-slice. */
    virtual void
    onSliceExit(std::uint64_t cycles, std::uint32_t rcmp_pc,
                std::uint32_t slice_id, std::uint32_t instrs,
                bool completed)
    {
        (void)cycles; (void)rcmp_pc; (void)slice_id; (void)instrs;
        (void)completed;
    }

    /** A REC checkpointed into Hist (or overflowed it, §3.5). */
    virtual void
    onRec(std::uint64_t cycles, std::uint32_t pc, std::uint32_t slice_id,
          std::uint32_t leaf_addr, bool overflowed)
    {
        (void)cycles; (void)pc; (void)slice_id; (void)leaf_addr;
        (void)overflowed;
    }

    /** The shadow check caught a recomputed value diverging from
     * functional memory. */
    virtual void
    onShadowMismatch(std::uint64_t cycles, std::uint32_t pc,
                     std::uint32_t slice_id, std::uint64_t addr,
                     std::uint64_t recomputed, std::uint64_t expected)
    {
        (void)cycles; (void)pc; (void)slice_id; (void)addr;
        (void)recomputed; (void)expected;
    }
};

/** Configuration of the amnesic microarchitecture and scheduler. */
struct AmnesicConfig
{
    Policy policy = Policy::FLC;
    /** §3.4 sizing; defaults follow the paper's findings ("less than 50
     * entries for SFile or IBuff cover most", "600 Hist entries"). */
    std::uint32_t sfileCapacity = 192;
    std::uint32_t histCapacity = 600;
    std::uint32_t ibuffCapacity = 64;
    /** Miss-predictor table size (Policy::Predictor only). */
    std::uint32_t predictorLogEntries = 10;
    /**
     * Verify every recomputed value against functional memory and count
     * mismatches (a diagnostic the paper lacks; see DESIGN.md §5).
     */
    bool shadowCheck = true;
    /** Panic on a shadow-check mismatch (tests). */
    bool strictMismatch = false;
    /**
     * Non-memory EPI scale the *oracle decision rule* assumes. Negative
     * (default) means "same as the charged model". The Table 6
     * break-even bench pins this to 1.0 while sweeping the charged
     * scale, so the binary's behaviour is fixed while its energy bill
     * changes (§5.5).
     */
    double decisionNonMemScale = -1.0;
};

/**
 * Fault-injection extension point of the amnesic microarchitecture
 * (src/testing). Callbacks fire at the two points where checkpoint and
 * recomputation state is written, letting an injector flip bits or
 * drop writes the way an SEU in the Hist/SFile SRAM would. Together
 * with the Hist/SFile/MemoryHierarchy corrupt/erase/invalidate
 * mutators, which an injector applies between step() calls, this is
 * the complete fault surface of the differential-fuzzing harness.
 * Implementations must only perturb *microarchitectural* state; the
 * oracle's job is to prove such perturbations are masked by the
 * fallback paths or flagged by the shadow check — never silent.
 */
class AmnesicFaultHooks
{
  public:
    virtual ~AmnesicFaultHooks() = default;

    /**
     * A REC is about to checkpoint `v0`/`v1` into Hist[leaf_addr].
     * Mutate the values to model corruption-at-write; return false to
     * drop the checkpoint entirely (the REC still executes and
     * charges, but Hist keeps its previous contents — a lost or stale
     * checkpoint depending on whether an entry existed).
     * @param fresh true when Hist has no entry for this leaf yet
     */
    virtual bool onRecCheckpoint(std::uint32_t leaf_addr,
                                 std::uint32_t slice_id, bool fresh,
                                 std::uint64_t &v0, std::uint64_t &v1)
    {
        (void)leaf_addr; (void)slice_id; (void)fresh; (void)v0; (void)v1;
        return true;
    }

    /**
     * A recomputing instruction produced `value`, about to be written
     * into the SFile (and, for the slice root, the destination
     * register). Mutating it models an SEU in the scratch file.
     */
    virtual void onSliceValue(std::uint32_t slice_pc,
                              std::uint32_t slice_id, std::uint64_t &value)
    {
        (void)slice_pc; (void)slice_id; (void)value;
    }
};

/**
 * Executes amnesic binaries. RCMP/REC/RTN semantics follow §3.3.2:
 * REC checkpoints into Hist (failed RECs poison their slice, §3.5);
 * RCMP consults the policy and either performs the load (with normal
 * cache fills) or traverses the slice through the renamer and SFile
 * (with *no* cache fill — the temporal-locality cost of recomputation
 * is modeled); RTN copies the root value into the eliminated load's
 * destination register.
 *
 * Implementation-wise this is a Machine that overrides execAmnesic,
 * which the interpreter calls for amnesic opcodes — the §3.2
 * structures (SFile/Renamer/Hist/IBuff) live here, the interpreter
 * loop lives once in src/sim.
 */
class AmnesicMachine : public Machine
{
  public:
    AmnesicMachine(const Program &program, const EnergyModel &energy,
                   const AmnesicConfig &config = {},
                   const HierarchyConfig &hierarchy_config = {},
                   const TimingConfig &timing = {});

    const SFile &sfile() const { return _sfile; }
    const Hist &hist() const { return _hist; }
    const IBuff &ibuff() const { return _ibuff; }
    const MissPredictor &predictor() const { return _predictor; }
    const AmnesicConfig &config() const { return _config; }

    /** Slices currently poisoned by failed RECs or SFile overflow. */
    std::size_t failedSliceCount() const { return _failedSliceCount; }

    /** Charged-model energy of one full traversal of a slice (the
     * realized Erc; the decision rule may use a pinned model instead). */
    double runtimeSliceEnergy(std::uint32_t slice_id) const;

    // --- observability API ----------------------------------------------

    /** Attach at most one tracer (nullptr detaches). Tracing is
     * passive: behaviour and SimStats are identical with and without. */
    void setTraceHooks(AmnesicTraceHooks *hooks) { _trace = hooks; }

    // --- fault-injection / testing API ---------------------------------

    /** Attach at most one fault hook (nullptr detaches). */
    void setFaultHooks(AmnesicFaultHooks *hooks) { _faults = hooks; }

    /** Mutable Hist/SFile access for persistent-state corruption
     * between steps. Never used by production paths. */
    Hist &mutableHist() { return _hist; }
    SFile &mutableSFile() { return _sfile; }

  private:
    void execAmnesic(const Instruction &instr) override;

    /** Why a traversal stopped, plus how much of it ran (tracing). */
    struct TraverseResult
    {
        bool completed = false;
        bool histMiss = false;      ///< aborted on an unwritten Hist entry
        bool sfileOverflow = false; ///< aborted on SFile overflow
        std::uint32_t instrs = 0;   ///< slice instructions executed
    };

    void execRec(const Instruction &instr);
    void poisonSlice(std::uint32_t slice_id);
    void execRcmp(const Instruction &instr);
    /** Decide per §3.3.1 from the load's `residence`: the FLC probe
     * hits iff it is L1, the LLC probes iff it is not Memory. Probes
     * are charged here. `trace` (when tracing) receives the predictor
     * verdict; the decision itself is identical whether or not a
     * tracer is attached. */
    bool shouldRecompute(const Instruction &instr, MemLevel residence,
                         AmnesicTraceHooks::RcmpEvent *trace);
    /** Traverse the slice; anything but `completed` means fallback. */
    TraverseResult traverseSlice(const Instruction &rcmp,
                                 std::uint64_t addr);

    AmnesicConfig _config;
    SFile _sfile;
    Renamer _renamer;
    Hist _hist;
    IBuff _ibuff;
    MissPredictor _predictor;
    /** Per slice id: poisoned by a failed REC or an SFile overflow
     * (§3.5), after which its RCMPs skip straight to the load. */
    std::vector<std::uint8_t> _failedSlices;
    std::size_t _failedSliceCount = 0;
    /** Precomputed per-slice runtime recompute energy (oracle rule). */
    std::vector<double> _sliceEnergy;
    /** Same sums under the charged model (site attribution / tracing). */
    std::vector<double> _sliceChargedNj;
    AmnesicFaultHooks *_faults = nullptr;
    AmnesicTraceHooks *_trace = nullptr;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_AMNESIC_MACHINE_H
