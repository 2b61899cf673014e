/**
 * @file
 * The §3.1.1 energy cost model: probabilistic load energy Eld (the
 * recomputation budget) and recomputation energy Erc (instruction mix ×
 * EPI plus the amnesic structure overheads).
 */

#ifndef AMNESIAC_CORE_COST_MODEL_H
#define AMNESIAC_CORE_COST_MODEL_H

#include "core/rslice.h"
#include "energy/epi.h"
#include "profile/profiler.h"
#include "timing/timing.h"

namespace amnesiac {

/**
 * Energy arithmetic shared by the compiler (selection) and the amnesic
 * scheduler's oracle policies (runtime decisions).
 */
class CostModel
{
  public:
    /**
     * @param energy kept by pointer, so it must outlive the model (a
     *        temporary is rejected at compile time)
     * @param timing optional cycle-accounting backend latency queries
     *        route through (src/timing). Null = the EnergyModel's base
     *        latencies directly, which every backend shares by the
     *        additive-hazard contract — the compiler's break-even
     *        analysis deliberately reasons about the base model, since
     *        hazard cycles are a dynamic property no static estimate
     *        can attribute to one slice.
     */
    explicit CostModel(const EnergyModel &energy,
                       const TimingModel *timing = nullptr)
        : _energy(&energy), _timing(timing)
    {
    }
    explicit CostModel(EnergyModel &&, const TimingModel * = nullptr) = delete;

    /**
     * Eld(v): sum over levels of Pr_Li × EPI of a load serviced at Li
     * (§3.1.1), from the site's profiled hit statistics.
     */
    double probabilisticLoadEnergy(const SiteProfile &site) const;

    /**
     * Eld from an explicit residence distribution. The paper derives
     * Pr_Li "from hit and miss statistics of Li under profiling" —
     * i.e. from global per-level counters, which is what makes the
     * Compiler policy fallible on benchmarks whose swapped loads are
     * unrepresentative of the whole program (§5.1, sr). Pass the global
     * distribution here to reproduce that model.
     */
    double loadEnergyFromDistribution(
        const std::array<double, kNumMemLevels> &pr) const;

    /**
     * Energy charged when recomputation actually fires: every
     * recomputing instruction at its category EPI, one Hist read per
     * instruction with a Hist operand, and the closing RTN. RCMP is
     * excluded — it executes whether or not recomputation fires.
     */
    double runtimeRecomputeEnergy(const RSlice &slice) const;

    /**
     * The compiler's full Erc estimate: runtime cost + the RCMP itself
     * + REC checkpoints amortized over the loads they serve.
     * @param rec_per_load dynamic REC executions per dynamic load of
     *        the swapped site (from profiling; 1.0 when unknown)
     */
    double estimatedRecomputeEnergy(const RSlice &slice,
                                    double rec_per_load) const;

    /** Latency (cycles) charged when recomputation fires. */
    std::uint64_t runtimeRecomputeLatency(const RSlice &slice) const;

    const EnergyModel &energy() const { return *_energy; }

  private:
    /** Base latency of one non-memory instruction, routed through the
     * attached timing backend when one is present. */
    std::uint32_t baseLatency(InstrCategory cat) const
    {
        return _timing ? _timing->instrLatency(*_energy, cat)
                       : _energy->instrLatency(cat);
    }

    const EnergyModel *_energy;
    const TimingModel *_timing;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_COST_MODEL_H
