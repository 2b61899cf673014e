/**
 * @file
 * RSlice construction (§3.1.1 "Slice Formation"): starting from the
 * immediate producer P(v), grow the backward slice level by level while
 * the estimated recomputation energy stays within the budget set by the
 * (probabilistic) load energy, with hard caps on length and height
 * (§3.4 storage complexity).
 */

#ifndef AMNESIAC_CORE_SLICE_BUILDER_H
#define AMNESIAC_CORE_SLICE_BUILDER_H

#include <optional>

#include "core/cost_model.h"
#include "core/rslice.h"
#include "profile/profiler.h"

namespace amnesiac {

/** Growth limits and sourcing thresholds. */
struct SliceBuilderConfig
{
    /** Hard cap on recomputing instructions per slice (SFile/IBuff
     * sizing, §3.4). Sized to admit the paper's longest observed
     * slices (~70 instructions, Fig 6). */
    std::uint32_t maxInstrs = 72;
    /** Hard cap on tree height h (§3.4); linear chains are as tall as
     * they are long. */
    std::uint32_t maxHeight = 72;
    /**
     * Minimum profiled probability that a boundary operand's register
     * still holds the producing value at load time for the compiler to
     * "prove" Live sourcing (no REC needed). Kept strict by default —
     * a wrong Live source silently recomputes a wrong value.
     */
    double liveThreshold = 0.9995;
    /** Accept a slice while Erc <= budgetMargin × Eld. */
    double budgetMargin = 1.0;
};

/**
 * Builds the best RSlice for one profiled load site, or nothing when no
 * energy-profitable slice exists (amnesic execution then "prohibits
 * recomputation", §2.1).
 */
class SliceBuilder
{
  public:
    /** Keeps a pointer to `energy`, which must outlive the builder (a
     * temporary is rejected at compile time). */
    SliceBuilder(const EnergyModel &energy,
                 const SliceBuilderConfig &config);
    SliceBuilder(EnergyModel &&, const SliceBuilderConfig &) = delete;

    /**
     * @param site the load site's profile (tree shapes, live stats)
     * @param energy_budget Eld estimate that caps Erc (§2: "the energy
     *        consumption of the load sets the energy budget")
     * @param profile execution counts for REC amortization and the
     *        arena holding the site's tree representatives
     * @param program the profiled program: the static operand fields
     *        of every tree node are read from its instruction
     * @return the grown slice, or nullopt if even the minimal
     *         root-only slice violates the budget or no producer tree
     *         exists
     */
    std::optional<RSlice> build(const SiteProfile &site,
                                double energy_budget,
                                const Profiler &profile,
                                const Program &program) const;

    /** REC executions per dynamic load for a candidate slice. */
    double recPerLoad(const RSlice &slice, const SiteProfile &site,
                      const Profiler &profile) const;

  private:
    const EnergyModel *_energy;
    SliceBuilderConfig _config;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_SLICE_BUILDER_H
