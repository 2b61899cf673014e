/**
 * @file
 * Store-elimination analysis (§1: "for each load replaced with an
 * RSlice, the corresponding store (to the same memory address) can
 * become redundant if no other load (from the same address) depends on
 * it. Therefore, amnesic execution can also filter out energy-hungry
 * stores, and reduce the pressure on memory capacity by shrinking the
 * memory footprint.").
 *
 * The paper does not implement this; we provide it as a profile-driven
 * analysis. A store site is *eliminable* under always-recompute
 * semantics iff every observed consumption of its values happens at
 * swapped load sites. Actually dropping the stores is only sound when
 * no fallback load can ever fire, so the analysis reports potential
 * savings rather than rewriting the binary (see DESIGN.md §5b).
 */

#ifndef AMNESIAC_CORE_STORE_ELIMINATION_H
#define AMNESIAC_CORE_STORE_ELIMINATION_H

#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/compiler.h"
#include "sim/machine.h"

namespace amnesiac {

/** Consumption profile of one static store site. */
struct StoreSiteProfile
{
    std::uint32_t pc = 0;
    std::uint64_t count = 0;           ///< dynamic stores
    double energyNj = 0.0;             ///< store energy attributed here
    /** Dynamic consumptions per consuming load site. */
    std::unordered_map<std::uint32_t, std::uint64_t> consumers;
    /** Distinct words this site wrote. */
    std::uint64_t footprintWords = 0;
};

/** Observer collecting store→load consumption edges. */
class StoreProfiler : public ExecutionObserver
{
  public:
    explicit StoreProfiler(const EnergyModel &energy) : _energy(&energy) {}

    void onStore(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                 std::uint64_t value, MemLevel serviced) override;
    void onLoad(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                std::uint64_t value, MemLevel serviced) override;

    /** Profiles in ascending-pc order. */
    std::vector<const StoreSiteProfile *> sites() const;

    /** Writer sites of every word (for footprint attribution). */
    const std::unordered_map<std::uint64_t,
                             std::set<std::uint32_t>> &wordWriters() const
    {
        return _wordWriters;
    }

  private:
    const EnergyModel *_energy;
    std::unordered_map<std::uint32_t, StoreSiteProfile> _sites;
    /** word -> last writer site. */
    std::unordered_map<std::uint64_t, std::uint32_t> _lastWriter;
    /** word -> all writer sites ever. */
    std::unordered_map<std::uint64_t, std::set<std::uint32_t>> _wordWriters;
    /** per-site distinct-word tracking. */
    std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
        _siteWords;
};

/** Result of the analysis over one compiled binary. */
struct StoreEliminationReport
{
    struct Site
    {
        std::uint32_t pc = 0;
        std::uint64_t dynStores = 0;
        double energyNj = 0.0;
        /** All consumers are swapped loads (recomputation covers them). */
        bool eliminable = false;
        /** No load ever consumed this site's values. */
        bool dead = false;
    };

    std::vector<Site> sites;
    std::uint64_t totalDynStores = 0;
    std::uint64_t eliminableDynStores = 0;
    double totalStoreEnergyNj = 0.0;
    double eliminableStoreEnergyNj = 0.0;
    /** Data-image words freeable when every writer is eliminable. */
    std::uint64_t totalWords = 0;
    std::uint64_t freeableWords = 0;

    double
    eliminableStorePct() const
    {
        return totalDynStores == 0
            ? 0.0
            : 100.0 * static_cast<double>(eliminableDynStores) /
                  static_cast<double>(totalDynStores);
    }

    double
    eliminableEnergyPct() const
    {
        return totalStoreEnergyNj == 0.0
            ? 0.0
            : 100.0 * eliminableStoreEnergyNj / totalStoreEnergyNj;
    }

    double
    footprintReductionPct() const
    {
        return totalWords == 0
            ? 0.0
            : 100.0 * static_cast<double>(freeableWords) /
                  static_cast<double>(totalWords);
    }
};

/**
 * Run the analysis: profile the *original* program classically and
 * attribute each store site against the compiled binary's swapped set.
 * Dead stores (never consumed) are reported separately — classic dead-
 * store elimination could already remove those.
 */
StoreEliminationReport analyzeStoreElimination(
    const Program &original, const CompileResult &compiled,
    const EnergyModel &energy, const HierarchyConfig &hierarchy = {},
    std::uint64_t run_limit = 1ull << 32);

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_STORE_ELIMINATION_H
