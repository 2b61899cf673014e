/**
 * @file
 * Experiment runner shared by every benchmark harness: profile →
 * compile (probabilistic and oracle slice sets) → simulate classic and
 * amnesic execution per policy → gain metrics, exactly the §5
 * methodology.
 */

#ifndef AMNESIAC_REPORT_EXPERIMENT_H
#define AMNESIAC_REPORT_EXPERIMENT_H

#include <optional>
#include <string>
#include <vector>

#include "core/amnesic_machine.h"
#include "core/compiler.h"
#include "core/policy.h"
#include "obs/manifest.h"
#include "obs/site_metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workloads/workload.h"

namespace amnesiac {

/** Everything configurable about one experiment. */
struct ExperimentConfig
{
    EnergyConfig energy;
    HierarchyConfig hierarchy;
    CompilerConfig compiler;
    AmnesicConfig amnesic;
    /** Cycle-accounting backend every simulation (classic and amnesic)
     * runs under; default scalar is the historical golden model. */
    TimingConfig timing;
    std::uint64_t runLimit = 1ull << 32;
    /**
     * Worker threads for the experiment pipeline: the (workload ×
     * policy) simulation matrix fans out across a thread pool.
     * 0 = hardware_concurrency, 1 = no pool (every task inline).
     * Serial and parallel runs produce bit-identical stats (every job
     * is an independent deterministic simulation merged in input
     * order).
     */
    unsigned jobs = 0;
    /**
     * Buffer per-policy trace events (obs/trace) into each
     * PolicyOutcome. Off by default: the machine then pays only a null
     * check per amnesic opcode and outcomes carry no buffers.
     */
    bool traceEvents = false;
    /** Also record Load/Store events — inflates traces by orders of
     * magnitude; only meaningful with traceEvents. */
    bool traceMemory = false;
    /** Per-policy trace buffer cap (deterministic, count-based). */
    std::size_t traceMaxRecords = TraceBuffer::kDefaultMaxRecords;
    /** Workload-generation seed, recorded in the run manifest for
     * provenance (harnesses that derive workloads from a seed set it;
     * it does not influence the runner itself). */
    std::uint64_t seed = 0;
    /**
     * Artifact-cache directory for compiled binaries. Empty falls back
     * to the AMNESIAC_CACHE_DIR environment variable; if that is unset
     * too, caching is off. Strictly opt-in and content-free: a cache
     * hit replays the byte-identical binary, slices, and selection
     * stats a cold compile would produce (tests/artifact_cache_test.cc
     * holds it to that), so this is excluded from the config digest
     * like the other scheduling knobs.
     */
    std::string cacheDir;
    /** Hard-disable the artifact cache (wins over cacheDir + env). */
    bool noCache = false;
};

/** One policy's run and its gains over classic execution (§5.1). */
struct PolicyOutcome
{
    Policy policy = Policy::Compiler;
    SimStats stats;
    double edpGainPct = 0.0;     ///< Fig 3
    double energyGainPct = 0.0;  ///< Fig 4
    double perfGainPct = 0.0;    ///< Fig 5
    /** Per-static-RCMP-site attribution (always collected; ascending
     * pc; fires/fallbacks reconcile against `stats`). */
    std::vector<SiteStats> sites;
    /** Event trace (empty unless ExperimentConfig::traceEvents). */
    TraceBuffer trace;
    /** Wall-clock of this policy's simulation (diagnostic only). */
    double wallSec = 0.0;

    /** % of fired recomputations whose data resided at each level —
     * the Table 5 row for this policy. */
    std::array<double, kNumMemLevels> swappedResidencePct() const;
};

/** Everything measured for one workload. */
struct BenchmarkResult
{
    std::string name;
    SimStats classic;
    /** Compiler output with the probabilistic slice set (§3.1.1). */
    CompileResult compiled;
    /** Compiler output with the oracle slice set (§5.1). */
    CompileResult oracleCompiled;
    std::vector<PolicyOutcome> policies;
    /** Provenance + cost of the run that produced this result. */
    RunManifest manifest;

    /** Outcome of one policy (nullptr if it was not run). */
    const PolicyOutcome *byPolicy(Policy policy) const;

    /** The slice set `policy` runs: `oracleCompiled` for Oracle,
     * `compiled` (the probabilistic set) for every other policy,
     * C-Oracle included. */
    const CompileResult &compiledFor(Policy policy) const;
};

/**
 * Runs workloads through the full §5 pipeline. Stateless between
 * calls; all determinism comes from the workload programs.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const ExperimentConfig &config = {});

    /** Full matrix: classic + all five policies. */
    BenchmarkResult run(const Workload &workload) const;

    /** Restricted policy list (cheaper for focused benches): runMany
     * of this one workload. */
    BenchmarkResult run(const Workload &workload,
                        const std::vector<Policy> &policies) const;

    /**
     * The full (workload × policy) matrix, fanned out over
     * `config().jobs` workers and merged in input order — results are
     * bit-identical for every `jobs` value. Phase 1 prepares each
     * workload, phase 2 simulates every (workload, policy) cell.
     */
    std::vector<BenchmarkResult>
    runMany(const std::vector<Workload> &workloads,
            const std::vector<Policy> &policies) const;

    /** Classic-only simulation of a program. */
    SimStats runClassic(const Program &program) const;

    /** One amnesic simulation of an already-compiled binary. */
    SimStats runAmnesic(const Program &program, Policy policy) const;

    const ExperimentConfig &config() const { return _config; }
    EnergyModel energyModel() const { return EnergyModel(_config.energy); }

    /** The worker count `config().jobs` resolves to on this host. */
    unsigned effectiveJobs() const;

    /**
     * Canonical string over every ExperimentConfig field that affects
     * simulation content — `jobs` and the trace-buffering knobs are
     * deliberately excluded (scheduling is content-free by the
     * determinism contract; tracing is passive by the transparency
     * contract). The manifest digest is FNV-1a over this string.
     */
    static std::string canonicalConfigString(const ExperimentConfig &config);

  private:
    /** Fill the provenance fields (digest, seed, jobs, pool snapshot)
     * of a finished result's manifest. */
    void stampManifest(RunManifest &manifest, const ThreadPool *pool) const;

    /** The compiles the policy list needs (cache reads, then one
     * compileSets call for the sets that miss) and the classic
     * reference stats: on the scalar backend the profiling run of the
     * first set, computed or loaded (no classic run; classicSec stays
     * 0); on the pipelined backend a classic run. */
    void prepare(BenchmarkResult &result, const Workload &workload,
                 const std::vector<Policy> &policies) const;
    /** One (prepared workload, policy) cell of the §5 matrix. */
    PolicyOutcome runPolicy(const BenchmarkResult &prepared,
                            Policy policy) const;

    ExperimentConfig _config;
};

/**
 * One energy of the break-even search (classic or amnesic) at the two
 * anchor scales s0 and 2·s0. With the scheduler's decision model
 * pinned, the energy is affine in the non-memory scale up to
 * floating-point rounding (derivation in experiment.cc).
 */
struct AffineEnergy
{
    double atS0 = 0.0;   ///< energy at s0, nJ
    double at2S0 = 0.0;  ///< energy at 2·s0, nJ
    /** Bound on the roundings one simulated total went through. */
    std::uint64_t terms = 0;

    /** The line through two runs of one binary at s0 and 2·s0: their
     * totals, and their common term count. */
    static AffineEnergy through(const SimStats &at_s0,
                                const SimStats &at_2s0);

    /** The energy at scale r·s0, extrapolated from the anchors. */
    double predict(double r) const;
    /** Worst-case |simulated energy at r·s0 − predict(r)| from
     * rounding alone; grows with `terms` and away from r ∈ [1, 2]. */
    double roundingBound(double r) const;
};

/**
 * The stats a run at s0 has at 2·s0 with the decision model pinned to
 * s0: the same, with `energy.nonMemNj` doubled. Exact, bit for bit
 * (argument in experiment.cc; tests/breakeven_test.cc pins it for every
 * registry workload under every policy).
 */
SimStats atDoubledNonMemScale(const SimStats &at_s0);

/**
 * Sign of (classic − amnesic) energy at scale r·s0 when the affine
 * prediction settles it despite rounding: +1 (amnesic execution
 * gains), −1 (it loses), or 0 when the predicted gap is within twice
 * the two rounding bounds and only a simulation can tell.
 */
int affineGapSign(const AffineEnergy &classic, const AffineEnergy &amnesic,
                  double r);

/**
 * Table 6 break-even search (§5.5): smallest non-memory EPI scale at
 * which the amnesic *energy* gain vanishes. The binary is compiled once
 * at the configured scale s0; the charged model is swept while the
 * scheduler's decision model stays pinned. (The paper's procedure is
 * underspecified and its EDP-based crossing need not exist in this
 * model because recomputation keeps its latency advantage at any R —
 * see EXPERIMENTS.md.)
 *
 * The search is an exponential bracket from s0 followed by 12
 * bisection steps on the sign of the gain. Pinning the decisions makes
 * both energies affine in the scale. The line through them is anchored
 * on the classic + amnesic pair at s0, which the caller hands in, and
 * on the pair at 2·s0, derived exactly from it (atDoubledNonMemScale).
 * Every other probe reads its sign off the affine prediction, and
 * simulates its own pair only when the predicted gap is within the
 * worst-case rounding error (affineGapSign). The result is therefore
 * the one simulating every probe gives, bit for bit.
 *
 * `compiled` must be `workload` compiled under `config` for `policy`,
 * e.g. `BenchmarkResult::compiledFor(policy)` of a run with the same
 * config. `classic_s0` and `amnesic_s0` are the classic run of
 * `workload` and the `policy` run of `compiled` at s0 with decisions
 * at s0: `BenchmarkResult::classic` and the policy's outcome stats of
 * such a run, when `config.amnesic.decisionNonMemScale` is unset or
 * s0. Only their energies, dynInstrs and rcmpSeen are read.
 * @param policy runtime policy to evaluate (the paper names C-Oracle)
 * @param max_scale search cap; returns max_scale if no crossing below
 * @return s0 when the binary has no slices or gains nothing at s0
 */
double breakEvenScale(const Workload &workload,
                      const CompileResult &compiled,
                      const SimStats &classic_s0,
                      const SimStats &amnesic_s0,
                      const ExperimentConfig &config,
                      Policy policy = Policy::COracle,
                      double max_scale = 256.0);

/**
 * The search above from scratch: compiles `workload` for `policy` at
 * s0, takes the classic s0 stats from the compile's profiling run
 * (CompileResult::profileRun), runs the one amnesic simulation at s0,
 * and delegates.
 */
double breakEvenScale(const Workload &workload,
                      const ExperimentConfig &config,
                      Policy policy = Policy::COracle,
                      double max_scale = 256.0);

}  // namespace amnesiac

#endif  // AMNESIAC_REPORT_EXPERIMENT_H
