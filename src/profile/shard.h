/**
 * @file
 * Sharded dependence profiling: split one workload's dynamic execution
 * into K contiguous instruction windows, profile every window with its
 * own DepTracker arena + Profiler on a private thread pool, and merge
 * the per-window results into a ProfileSource that is *indistinguishable*
 * from a serial Profiler run — same residence counts, same candidate
 * trees (signatures, counts, and first-occurrence order), same
 * live-operand statistics, same value locality. The compiler therefore
 * selects the same candidates and emits byte-identical `.amnb` output
 * (machine-checked in tests/profile_shard_test.cc). See DESIGN.md §3h.
 *
 * Three passes:
 *  - A0: a bare classic run (no observer, full interpreter speed) to
 *    learn the total dynamic instruction count and place the window
 *    boundaries.
 *  - A1: one serial *seed* pass that only mirrors producer state (no
 *    per-load tree analysis — the expensive part), capturing at each
 *    window boundary an EngineSnapshot plus the DepTracker and each
 *    load site's previous value. This is what lets window k observe
 *    producer chains that started arbitrarily far before it.
 *  - B: the windows replay in parallel, each from its snapshot + seeded
 *    Profiler, performing the full per-load analysis for its span only.
 */

#ifndef AMNESIAC_PROFILE_SHARD_H
#define AMNESIAC_PROFILE_SHARD_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "profile/profiler.h"

namespace amnesiac {

/** Knobs for one sharded profiling run. */
struct ShardOptions
{
    /** Worker threads / target window count; 0 = hardware concurrency.
     * 1 degenerates to a single window (still exercises the window
     * machinery; callers wanting the plain serial profiler should just
     * use Profiler directly). */
    unsigned jobs = 0;
    /** Runaway guard for the measuring pass, same semantics as
     * Machine::run's max_instrs. */
    std::uint64_t runLimit = 1ull << 32;
    /**
     * Test override: explicit dynamic-instruction window lengths,
     * applied in order from dispatch 0. If they do not cover the whole
     * run, one final window covers the remainder. Empty = split the
     * run evenly into min(jobs, total) windows.
     */
    std::vector<std::uint64_t> windowLengths;
};

/**
 * The deterministic merge of K window profilers. Owns the window
 * Profiler instances (and therefore the DepTracker arenas holding every
 * candidate tree's pinned representative).
 */
class ShardedProfile : public ProfileSource
{
  public:
    const SiteProfile *site(std::uint32_t pc) const override;
    std::vector<const SiteProfile *> sites() const override;
    std::uint64_t execCount(std::uint32_t pc) const override;
    double valueLocalityPercent(std::uint32_t pc) const override;
    const DepTracker &treeArena(const CandidateTree &tree) const override;

    /** Number of windows actually profiled. */
    unsigned shards() const
    {
        return static_cast<unsigned>(_windows.size());
    }

    /** Window k's dependence tracker (arena counters). */
    const DepTracker &tracker(unsigned k) const
    {
        return _windows[k]->tracker();
    }

  private:
    ShardedProfile() = default;

    void mergeWindows(const ProfilerConfig &config);

    friend std::unique_ptr<ShardedProfile>
    profileSharded(const Program &program, const EnergyModel &energy,
                   const HierarchyConfig &hierarchy,
                   const ProfilerConfig &config, const ShardOptions &options);

    /** Merged per-pc tables (see Profiler::siteTable). */
    std::vector<SiteProfile> _sites;
    std::vector<std::uint64_t> _exec;
    std::unordered_map<std::uint32_t, ValueLocalityProfiler::SiteCounts>
        _locality;
    std::vector<std::unique_ptr<Profiler>> _windows;
};

/**
 * Run the full profiling pass for `program` sharded over
 * min(options.jobs, dynamic length) windows. The returned profile is
 * equivalent to attaching one Profiler to one serial classic run with
 * the same `config` (see file comment for the proof obligations).
 */
std::unique_ptr<ShardedProfile>
profileSharded(const Program &program, const EnergyModel &energy,
               const HierarchyConfig &hierarchy, const ProfilerConfig &config,
               const ShardOptions &options = {});

}  // namespace amnesiac

#endif  // AMNESIAC_PROFILE_SHARD_H
