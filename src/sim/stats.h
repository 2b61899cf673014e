/**
 * @file
 * Aggregated execution statistics: dynamic instruction mix, energy
 * breakdown (Table 4), cycles, and the EDP metric (§5.1, Gonzalez &
 * Horowitz).
 */

#ifndef AMNESIAC_SIM_STATS_H
#define AMNESIAC_SIM_STATS_H

#include <array>
#include <cstdint>
#include <string>

#include "energy/epi.h"
#include "isa/opcode.h"

namespace amnesiac {

/** Energy split used by the paper's Table 4. */
struct EnergyBreakdown
{
    double loadNj = 0.0;
    double storeNj = 0.0;
    double nonMemNj = 0.0;
    /** Hist reads during recomputation (reported separately in Table 4). */
    double histReadNj = 0.0;

    double totalNj() const
    {
        return loadNj + storeNj + nonMemNj + histReadNj;
    }

    bool operator==(const EnergyBreakdown &) const = default;
};

/** Counters accumulated by a machine run. */
struct SimStats
{
    std::uint64_t dynInstrs = 0;
    std::uint64_t dynLoads = 0;      ///< loads actually performed
    std::uint64_t dynStores = 0;
    std::uint64_t cycles = 0;
    /** Dirty L1 victims installed into L2 (write-back traffic). */
    std::uint64_t l2WritebackInstalls = 0;
    EnergyBreakdown energy;
    std::array<std::uint64_t,
               static_cast<std::size_t>(InstrCategory::NumCategories)>
        perCategory{};

    // --- amnesic-execution extras (zero under classic execution) ---
    std::uint64_t rcmpSeen = 0;          ///< dynamic RCMPs fetched
    std::uint64_t recomputations = 0;    ///< RCMPs that fired a slice
    std::uint64_t fallbackLoads = 0;     ///< RCMPs that performed the load
    std::uint64_t recomputedInstrs = 0;  ///< slice instructions executed
    std::uint64_t histReads = 0;
    std::uint64_t histWrites = 0;
    std::uint64_t histOverflows = 0;     ///< failed RECs (§3.5)
    std::uint64_t recomputeChecked = 0;  ///< shadow-verified recomputations
    std::uint64_t recomputeMismatches = 0;
    std::uint64_t sfileAborts = 0;       ///< recomputations killed by SFile
    std::uint64_t histMissFallbacks = 0; ///< RCMPs with unwritten Hist entry
    /** Classic-residence profile of the dynamic loads this run swapped
     * for recomputation (Table 5). */
    std::array<std::uint64_t, 3> swappedByLevel{};
    /** Same for RCMPs that fell back to the load. */
    std::array<std::uint64_t, 3> fallbackByLevel{};

    // --- pipeline-hazard extras (zero under the scalar backend) ---
    std::uint64_t loadUseStalls = 0;       ///< load→use interlocks hit
    std::uint64_t loadUseStallCycles = 0;  ///< cycles those stalls cost
    std::uint64_t controlBubbles = 0;      ///< unconditional-jump bubbles
    std::uint64_t controlBubbleCycles = 0;
    std::uint64_t mispredictFlushes = 0;   ///< front-end flushes
    std::uint64_t mispredictFlushCycles = 0;
    std::uint64_t predictorHits = 0;       ///< conditional branches predicted right
    std::uint64_t predictorMisses = 0;

    /** Total cycles the pipelined backend added on top of the scalar
     * base latencies — by construction, pipelined.cycles equals
     * scalar.cycles + hazardCycles() for the same run. */
    std::uint64_t hazardCycles() const
    {
        return loadUseStallCycles + controlBubbleCycles +
               mispredictFlushCycles;
    }

    /** Fraction of conditional branches predicted correctly (0 when the
     * run saw none, e.g. under the scalar backend). */
    double branchPredictionAccuracy() const
    {
        std::uint64_t total = predictorHits + predictorMisses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(predictorHits) /
                         static_cast<double>(total);
    }

    /** Total energy in nJ. */
    double energyNj() const { return energy.totalNj(); }

    /** Wall-clock time of the run in seconds. */
    double timeSeconds(const EnergyModel &model) const
    {
        return model.cyclesToSeconds(cycles);
    }

    /** Energy-delay product in joule-seconds. */
    double
    edp(const EnergyModel &model) const
    {
        return energyNj() * 1e-9 * timeSeconds(model);
    }

    /** Multi-line human-readable dump (debugging, examples). */
    std::string summary(const EnergyModel &model) const;

    /** Field-by-field equality; energies compare as doubles, exactly. */
    bool operator==(const SimStats &) const = default;
};

/** Percentage gain of `amnesic` over `classic` for a metric pair. */
double gainPercent(double classic, double amnesic);

}  // namespace amnesiac

#endif  // AMNESIAC_SIM_STATS_H
