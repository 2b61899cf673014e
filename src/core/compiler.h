/**
 * @file
 * The amnesic compiler (§3.1): profiles the program, extracts and
 * validates recomputation slices, and rewrites the binary — swapping
 * each selected load for an RCMP, inserting RECs before the originals
 * of history-fed leaves, and appending the slice region.
 */

#ifndef AMNESIAC_CORE_COMPILER_H
#define AMNESIAC_CORE_COMPILER_H

#include <vector>

#include "core/slice_builder.h"
#include "energy/epi.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "obs/span.h"
#include "sim/stats.h"

namespace amnesiac {

/** Compiler pass configuration. */
struct CompilerConfig
{
    SliceBuilderConfig builder;
    /** Minimum share of a site's dynamic instances that must exhibit
     * the dominant backward-slice shape (§3.1.1 is profile-driven). */
    double stabilityThreshold = 0.90;
    /**
     * Minimum dry-run functional match rate. 1.0 (default) admits only
     * slices that reproduced the loaded value at every profiled
     * instance — the soundness guard described in DESIGN.md §5.
     */
    double matchThreshold = 1.0;
    /** Ignore sites colder than this many dynamic instances. */
    std::uint64_t minSiteCount = 8;
    /** Select iff ErcEstimate < profitabilityMargin × EldEstimate. */
    double profitabilityMargin = 1.0;
    /**
     * Estimate Eld from the global per-level hit statistics of the
     * profiling run, as the paper does (§3.1.1). This is the model whose
     * inaccuracy the evaluation measures via C-Oracle vs Compiler; set
     * false for the exact per-site model (an ablation of ours).
     */
    bool globalResidenceModel = true;
    /**
     * Build the Oracle slice set (§5.1): grow every feasible slice
     * against the maximum (memory-resident) budget and skip the
     * probabilistic profitability filter; the runtime oracle decides
     * per dynamic instance.
     */
    bool oracleSet = false;
    /**
     * Run the static candidate pruner before dynamic profiling: a
     * fixpoint dataflow solve (value ranges, reaching defs, trip-count
     * bounds, store footprints) discards productions and load sites
     * that provably cannot survive selection, so the profiler skips
     * their per-instance tree work. Conservative-only: the selected
     * candidate set and the emitted binary are byte-identical with and
     * without pruning — only compile time changes. Excluded from the
     * canonical experiment config string for the same reason.
     */
    bool prune = true;
    /** Runaway guard for the profiling simulations. */
    std::uint64_t runLimit = 1ull << 32;
};

/** Why candidates were kept or dropped (reported by benches/tests). */
struct CompileStats
{
    std::uint64_t sitesSeen = 0;
    std::uint64_t rejectedCold = 0;
    std::uint64_t rejectedUnstable = 0;
    std::uint64_t rejectedNoSlice = 0;
    std::uint64_t rejectedEnergy = 0;
    std::uint64_t rejectedMatch = 0;
    std::uint64_t selected = 0;
    std::uint64_t recInsertions = 0;
    /** Dynamic loads covered by the selected sites (profiling run). */
    std::uint64_t coveredDynLoads = 0;
    std::uint64_t totalDynLoads = 0;
    /** Findings of the mandatory post-compile analysis gate (the gate
     * aborts on Error-severity findings, so these only count the
     * surviving severities). */
    std::uint64_t analysisWarnings = 0;
    std::uint64_t analysisNotes = 0;
    /** Load sites the static pruner excused from tree analysis. */
    std::uint64_t prunedSites = 0;
    /** Reachable sliceable productions replaced by opaque sentinels. */
    std::uint64_t prunedProductions = 0;

    bool operator==(const CompileStats &) const = default;
};

/** Output of the compiler pass. */
struct CompileResult
{
    /** The rewritten (amnesic) binary. */
    Program program;
    /** The selected slices; index == slice id in the binary. */
    std::vector<RSlice> slices;
    CompileStats stats;
    /** Wall-clock seconds spent in static analysis: the pre-profiling
     * dataflow solve + pruner plus the post-compile analysis gate. */
    double analysisSec = 0.0;
    /** Wall-clock seconds of the dependence-profiling pass (pass 1
     * only — a share of the pipeline's compileSec, like analysisSec). */
    double profileSec = 0.0;
    /**
     * Gap-free per-pass wall-clock laps over the compile body, in
     * execution order (prune, profile, select, dryrun, rewrite, gate):
     * each entry covers everything since the previous one, so the
     * entries sum to the body's wall time. compileSets() charges the
     * passes its results share (prune, profile, dryrun) to the first
     * result only, so the tables of all its results together sum to
     * the call's wall time. Diagnostic only — never serialized into
     * cached artifacts (a cache hit legitimately has an empty table).
     * Feeds RunManifest::passes.
     */
    std::vector<PassTime> passTimes;
    /**
     * The stats of the dependence-profiling run: a classic run of the
     * input under the compiler's energy model and hierarchy on the
     * scalar timing backend. Under a config that matches on energy,
     * hierarchy and runLimit, they equal ExperimentRunner::runClassic
     * whole on the scalar backend (prepare() takes them as
     * BenchmarkResult::classic), and in energy, dynInstrs and rcmpSeen
     * on the pipelined one. Every result of compileSets() gets them,
     * and the artifact cache stores them, so a hit carries them too.
     */
    SimStats profileRun;
    /** The profiler's work counters. Like passTimes they go to the
     * first result of compileSets() only and are never serialized, so
     * a cache hit leaves them zero. */
    ProfilerCounters profilerCounters;
};

/**
 * Profile-guided amnesic compilation: two classic profiling runs
 * (dependence/residence profiling, then dry-run validation) followed by
 * the rewrite. The input binary must be slice-free. Several slice sets
 * of one program (the probabilistic and the Oracle set, §5.1) share
 * both runs through compileSets().
 */
class AmnesicCompiler
{
  public:
    AmnesicCompiler(const EnergyModel &energy,
                    const HierarchyConfig &hierarchy = {},
                    const CompilerConfig &config = {});

    /** Run the full pass under the constructor's configuration. */
    CompileResult compile(const Program &input) const;

    /**
     * Run the full pass once per configuration, sharing the work that
     * does not depend on it: one dataflow solve, one profiling run and
     * one dry-run replay serve every configuration. The profile is
     * taken under the intersection of the configurations' prune masks,
     * which by the pruner's conservative-only contract leaves every
     * site a configuration keeps profiled exactly as under its own
     * masks. Result k is byte-identical to compile() under configs[k];
     * the configurations must agree on runLimit. The constructor's
     * configuration is not used.
     */
    std::vector<CompileResult>
    compileSets(const Program &input,
                const std::vector<CompilerConfig> &configs) const;

    /**
     * Rewrite only (exposed for tests): swap the given loads and embed
     * the given slices; ids are assigned by position.
     */
    static Program rewrite(const Program &input,
                           const std::vector<RSlice> &slices,
                           CompileStats *stats = nullptr);

  private:
    EnergyModel _energy;
    HierarchyConfig _hierarchy;
    CompilerConfig _config;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_COMPILER_H
