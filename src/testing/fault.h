/**
 * @file
 * Fault model of the differential-fuzzing harness: a FaultPlan is a
 * deterministic list of microarchitectural perturbations (bit flips in
 * SFile/Hist entries, dropped or stale REC checkpoints, cache-line
 * invalidations), and a FaultInjector arms one plan against one
 * AmnesicMachine run: value faults go through the production hook
 * points (AmnesicFaultHooks), cache evictions are applied between
 * step() calls of the injector's own run loop. Every fault that
 * actually fires is recorded in an injected-fault registry so the
 * differential oracle can attribute any observed divergence to a
 * specific injected event — a divergence with no registry entry is a
 * bug, not a fault.
 */

#ifndef AMNESIAC_TESTING_FAULT_H
#define AMNESIAC_TESTING_FAULT_H

#include <string>
#include <string_view>
#include <vector>

#include "core/amnesic_machine.h"
#include "util/rng.h"

namespace amnesiac {

/** What kind of microarchitectural event a FaultSpec perturbs. */
enum class FaultKind : std::uint8_t {
    /** XOR a mask into a checkpoint value as the REC writes it into
     * Hist (SEU in the history-table SRAM). */
    HistCorrupt,
    /** XOR a mask into a recomputed value as it enters the SFile (SEU
     * in the scratch-file SRAM). */
    SFileCorrupt,
    /** From the trigger on, drop every REC checkpoint write (dead
     * checkpoint port: entries keep their pre-trigger value, or stay
     * unwritten and force the Condition-II fallback). */
    DropRec,
    /** From the trigger on, suppress every REC *update* of an existing
     * entry: checkpoints freeze and go stale. */
    StaleRec,
    /** Invalidate a pseudo-random cache line at an exact dynamic
     * instruction index (placement-only: must always be masked). */
    CacheEvict,

    NumKinds,
};

/** Printable kind name (stable; part of the repro-file format). */
std::string_view faultKindName(FaultKind kind);

/** Parse a kind name back; false on unknown names. */
bool parseFaultKind(std::string_view name, FaultKind &out);

/** True when the fault can only perturb placement (energy/latency),
 * never values — the oracle requires such faults to be fully masked. */
bool isPlacementOnly(FaultKind kind);

/** One planned fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::HistCorrupt;
    /**
     * When to fire, counted in the kind's own event stream (0-based):
     * REC checkpoints for HistCorrupt/DropRec/StaleRec, recomputed
     * slice values for SFileCorrupt, executed instructions for
     * CacheEvict.
     */
    std::uint64_t trigger = 0;
    /** XOR payload of the corrupting kinds. */
    std::uint64_t mask = 1;
    /** Hist lane (0/1) HistCorrupt flips. */
    std::uint32_t lane = 0;
};

/** A whole run's worth of planned faults. */
using FaultPlan = std::vector<FaultSpec>;

/** Registry entry: one fault that actually fired. */
struct InjectedFault
{
    /** Index into the plan. */
    std::size_t specIndex = 0;
    FaultKind kind = FaultKind::HistCorrupt;
    /** Event ordinal at which it fired (the spec's trigger stream). */
    std::uint64_t atEvent = 0;
    /** Site: Hist leaf address, slice-region pc, or evicted byte
     * address, by kind. */
    std::uint64_t site = 0;
    /** How many events the fault perturbed (StaleRec suppresses many). */
    std::uint64_t hits = 0;
};

/**
 * Arms one FaultPlan against one machine run. Deterministic: the only
 * randomness (CacheEvict's target address) flows through a dedicated
 * RNG stream seeded at construction. Use one injector per run.
 */
class FaultInjector final : public AmnesicFaultHooks
{
  public:
    /**
     * @param plan the faults to arm
     * @param rng_seed seed of the injector's private draw stream
     */
    explicit FaultInjector(FaultPlan plan, std::uint64_t rng_seed = 1);

    /**
     * Install this injector's hooks into `machine` and run it until
     * HALT or until max_instrs instructions were dispatched, the budget
     * of Machine::run. A plan with a CacheEvict spec steps the machine,
     * evicting between instructions; a runaway then stops unhalted
     * instead of failing inside the machine. Any other plan is a plain
     * Machine::run.
     */
    void run(AmnesicMachine &machine, std::uint64_t max_instrs);

    /** Everything that actually fired. */
    const std::vector<InjectedFault> &injected() const { return _injected; }

    /** True when at least one planned fault fired. */
    bool anyFired() const { return !_injected.empty(); }

    /** True when every *fired* fault is placement-only (or none fired):
     * the run's architectural state must then match classic exactly. */
    bool firedOnlyPlacementFaults() const;

    /** One-line registry rendering for reports. */
    std::string describe() const;

    // --- AmnesicFaultHooks ---
    bool onRecCheckpoint(std::uint32_t leaf_addr, std::uint32_t slice_id,
                         bool fresh, std::uint64_t &v0,
                         std::uint64_t &v1) override;
    void onSliceValue(std::uint32_t slice_pc, std::uint32_t slice_id,
                      std::uint64_t &value) override;

  private:
    /** Fire the CacheEvict specs due before the next instruction, given
     * the number of instructions already executed. */
    void onStep(Machine &machine, std::uint64_t executed_instrs);
    bool alreadyFired(std::size_t spec_index) const;
    InjectedFault &record(std::size_t spec_index, std::uint64_t at_event,
                          std::uint64_t site);

    FaultPlan _plan;
    Xorshift64Star _rng;
    std::vector<InjectedFault> _injected;
    std::uint64_t _recEvents = 0;
    std::uint64_t _valueEvents = 0;
};

}  // namespace amnesiac

#endif  // AMNESIAC_TESTING_FAULT_H
