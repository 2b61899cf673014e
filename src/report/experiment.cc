#include "report/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "analysis/analyzer.h"
#include "obs/span.h"
#include "report/artifact_cache.h"
#include "sim/machine.h"
#include "util/logging.h"

namespace amnesiac {

namespace {

using WallClock = std::chrono::steady_clock;

double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

std::array<double, kNumMemLevels>
PolicyOutcome::swappedResidencePct() const
{
    std::array<double, kNumMemLevels> pct{};
    std::uint64_t total = 0;
    for (std::uint64_t v : stats.swappedByLevel)
        total += v;
    if (total == 0)
        return pct;
    for (std::size_t i = 0; i < kNumMemLevels; ++i)
        pct[i] = 100.0 * static_cast<double>(stats.swappedByLevel[i]) /
                 static_cast<double>(total);
    return pct;
}

const PolicyOutcome *
BenchmarkResult::byPolicy(Policy policy) const
{
    auto it = std::find_if(policies.begin(), policies.end(),
                           [policy](const PolicyOutcome &o) {
                               return o.policy == policy;
                           });
    return it == policies.end() ? nullptr : &*it;
}

const CompileResult &
BenchmarkResult::compiledFor(Policy policy) const
{
    return needsOracleSet(policy) ? oracleCompiled : compiled;
}

ExperimentRunner::ExperimentRunner(const ExperimentConfig &config)
    : _config(config)
{
}

SimStats
ExperimentRunner::runClassic(const Program &program) const
{
    Machine machine(program, energyModel(), _config.hierarchy,
                    _config.timing);
    machine.run(_config.runLimit);
    return machine.stats();
}

SimStats
ExperimentRunner::runAmnesic(const Program &program, Policy policy) const
{
    AmnesicConfig amnesic = _config.amnesic;
    amnesic.policy = policy;
    AmnesicMachine machine(program, energyModel(), amnesic,
                           _config.hierarchy, _config.timing);
    machine.run(_config.runLimit);
    return machine.stats();
}

unsigned
ExperimentRunner::effectiveJobs() const
{
    return _config.jobs == 0 ? ThreadPool::defaultThreadCount()
                             : _config.jobs;
}

std::string
ExperimentRunner::canonicalConfigString(const ExperimentConfig &config)
{
    // Every field below changes what the simulations compute; `jobs`,
    // the trace-buffering knobs (traceEvents/traceMemory/
    // traceMaxRecords), and the artifact-cache knobs (cacheDir/noCache)
    // are excluded because tracing is passive, scheduling is
    // content-free, and a cache hit replays byte-identical compiler
    // output — those exclusions *are* the digest's claim. Append-only:
    // new content-affecting fields must be added at the end so old
    // digests stay comparable within a revision.
    std::string out;
    out.reserve(768);
    auto u64 = [&](const char *key, std::uint64_t value) {
        appendConfigU64(out, key, value);
    };

    // `compiler.prune` is deliberately absent, like `jobs` (see
    // appendCompileConfig): prune on/off runs rightly share a digest —
    // and the perf-smoke harness holds it to that claim.
    appendCompileConfig(out, config.energy, config.hierarchy,
                        config.compiler);
    u64("compileRunLimit", config.compiler.runLimit);

    const AmnesicConfig &a = config.amnesic;
    u64("policy", static_cast<std::uint64_t>(a.policy));
    u64("sfile", a.sfileCapacity);
    u64("hist", a.histCapacity);
    u64("ibuff", a.ibuffCapacity);
    u64("predLog", a.predictorLogEntries);
    u64("shadow", a.shadowCheck ? 1 : 0);
    u64("strict", a.strictMismatch ? 1 : 0);
    appendConfigNum(out, "decisionScale", a.decisionNonMemScale);

    u64("runLimit", config.runLimit);
    u64("seed", config.seed);

    // Timing backend (appended after the original fields per the
    // append-only rule). Without these, scalar and pipelined runs of
    // the same workload would collide on one digest — the exact
    // provenance bug the RunManifest exists to prevent.
    const TimingConfig &t = config.timing;
    u64("timingBackend", static_cast<std::uint64_t>(t.backend));
    u64("branchPred", static_cast<std::uint64_t>(t.predictor));
    u64("branchPredLog", t.predictorLogEntries);
    u64("loadUseStall", t.loadUseStallCycles);
    u64("mispredictPenalty", t.mispredictPenaltyCycles);
    u64("jumpBubble", t.jumpBubbleCycles);
    return out;
}

void
ExperimentRunner::prepare(BenchmarkResult &result,
                          const Workload &workload,
                          const std::vector<Policy> &policies,
                          ThreadPool *pool) const
{
    ScopedSpan prepare_span("prepare", workload.name);
    result.name = workload.name;

    bool need_oracle = std::any_of(policies.begin(), policies.end(),
                                   needsOracleSet);
    bool need_normal = !std::all_of(policies.begin(), policies.end(),
                                    needsOracleSet);

    // The slice sets the policies need, each with the field it fills.
    std::vector<CompilerConfig> configs;
    std::vector<CompileResult *> outputs;
    auto add_set = [&](bool oracle, CompileResult &output) {
        CompilerConfig config = _config.compiler;
        config.runLimit = _config.runLimit;
        config.oracleSet = oracle;
        configs.push_back(config);
        outputs.push_back(&output);
    };
    if (need_normal)
        add_set(false, result.compiled);
    if (need_oracle)
        add_set(true, result.oracleCompiled);

    // The artifact cache is opt-in (explicit dir or environment) and
    // content-free: a hit replays the byte-identical binary + stats a
    // cold compile would produce, so only the wall-clock changes. Each
    // set caches under its own key; a set with no entry compiles, and
    // so does one whose entry fails to load, together in one
    // compileSets call that shares its profile and dry run.
    const std::string cache_dir =
        _config.noCache ? std::string() : resolveCacheDir(_config.cacheDir);
    std::optional<ArtifactCache> cache;
    if (!cache_dir.empty())
        cache.emplace(cache_dir);
    std::vector<std::uint64_t> keys(configs.size());
    std::vector<bool> stored(configs.size(), false);
    for (std::size_t k = 0; k < configs.size(); ++k)
        if (cache) {
            keys[k] = ArtifactCache::key(workload.program, _config.energy,
                                         _config.hierarchy, configs[k]);
            stored[k] = cache->holds(keys[k]);
        }

    // The compile's profiling run is a classic run of the workload
    // under this config's energy model, hierarchy and runLimit, on the
    // scalar backend, and its observer is passive. On the scalar
    // backend its stats are therefore the classic reference stats,
    // whole (breakeven_test pins it on every registry workload), so
    // when a set has no entry, and so surely compiles, the classic
    // stats come from there and no classic run is made: classicSec
    // stays 0. A pipelined config (whose cycles differ), or one whose
    // every set has an entry, runs the classic reference itself,
    // beside the cache reads and any compile. The jobs write disjoint
    // fields of `result`.
    const bool classic_from_profile =
        std::find(stored.begin(), stored.end(), false) != stored.end() &&
        _config.timing.backend == TimingBackend::Scalar;
    std::vector<std::function<void()>> tasks;
    if (!classic_from_profile)
        tasks.push_back([this, &result, &workload] {
            ScopedSpan span("classic", workload.name);
            WallClock::time_point start = WallClock::now();
            result.classic = runClassic(workload.program);
            result.manifest.phases.classicSec = secondsSince(start);
            span.counter("instrs", result.classic.dynInstrs);
        });
    if (!configs.empty())
        tasks.push_back([&] {
            WallClock::time_point start = WallClock::now();
            std::vector<CompilerConfig> missed;
            std::vector<std::size_t> missed_at;
            for (std::size_t k = 0; k < configs.size(); ++k) {
                std::optional<CompileResult> hit;
                if (stored[k])
                    hit = cache->load(keys[k]);
                if (hit) {
                    *outputs[k] = std::move(*hit);
                    ++result.manifest.cacheHits;
                    continue;
                }
                if (cache)
                    ++result.manifest.cacheMisses;
                missed.push_back(configs[k]);
                missed_at.push_back(k);
            }
            if (!missed.empty()) {
                AmnesicCompiler compiler(energyModel(), _config.hierarchy);
                std::vector<CompileResult> compiled =
                    compiler.compileSets(workload.program, missed);
                if (classic_from_profile)
                    result.classic = compiled.front().profileRun;
                for (std::size_t m = 0; m < missed.size(); ++m) {
                    const std::size_t k = missed_at[m];
                    if (cache)
                        cache->store(keys[k], compiled[m]);
                    *outputs[k] = std::move(compiled[m]);
                }
            }
            result.manifest.phases.compileSec = secondsSince(start);
        });
    parallelFor(pool, tasks.size(),
                [&tasks](std::size_t i) { tasks[i](); });
    result.manifest.phases.analysisSec =
        result.compiled.analysisSec + result.oracleCompiled.analysisSec;
    result.manifest.phases.profileSec =
        result.compiled.profileSec + result.oracleCompiled.profileSec;

    // Per-pass breakdown of compileSec: the two slice sets' gap-free
    // lap tables (the shared passes sit in the first one), summed by
    // pass name in first-appearance order. A cache hit contributes
    // nothing (its passTimes are empty — no passes ran), so the table
    // keeps summing to compileSec within timer noise either way.
    auto merge_passes = [&result](const std::vector<PassTime> &laps) {
        for (const PassTime &lap : laps) {
            auto it = std::find_if(result.manifest.passes.begin(),
                                   result.manifest.passes.end(),
                                   [&lap](const PassTime &entry) {
                                       return entry.name == lap.name;
                                   });
            if (it == result.manifest.passes.end())
                result.manifest.passes.push_back(lap);
            else
                it->sec += lap.sec;
        }
    };
    merge_passes(result.compiled.passTimes);
    merge_passes(result.oracleCompiled.passTimes);
    // At most one profile ran per set that missed; the counters sit in
    // the first result of its compileSets call, so summing counts each
    // profile once.
    ProfilerCounters &counters = result.manifest.profiler;
    for (const CompileResult *set :
         {&result.compiled, &result.oracleCompiled}) {
        counters.productions += set->profilerCounters.productions;
        counters.arenaNodes += set->profilerCounters.arenaNodes;
        counters.walkNodes += set->profilerCounters.walkNodes;
        counters.operandProbes += set->profilerCounters.operandProbes;
    }
    result.manifest.prunedCandidates =
        result.compiled.stats.prunedSites +
        result.compiled.stats.prunedProductions +
        result.oracleCompiled.stats.prunedSites +
        result.oracleCompiled.stats.prunedProductions;

    // Pre-simulation analysis gate: every binary about to be simulated
    // must lint clean against the *configured* machine (the compiler's
    // own gate only sees the default capacities). Errors abort; the
    // sizing warnings surface once so capacity-sweep ablations still
    // run while the mismatch stays visible.
    AnalyzerOptions lint;
    lint.sfileCapacity = _config.amnesic.sfileCapacity;
    lint.histCapacity = _config.amnesic.histCapacity;
    lint.energy = _config.energy;
    auto gate = [&](const Program &program, const char *which) {
        AnalysisReport report = analyzeProgram(program, lint);
        if (report.hasErrors())
            AMNESIAC_FATAL(std::string(which) + " binary for '" +
                           workload.name + "' failed analysis:\n" +
                           report.renderText());
        // Only the capacity warnings depend on this gate's configured
        // sizing; the rest are compile-time properties the compiler
        // gate already counted (and oracle sets record Erc >= Eld by
        // design, which would spam AMN602 here).
        for (const Diagnostic &d : report.diagnostics)
            if (d.severity == Severity::Warning &&
                d.id.compare(0, 4, "AMN3") == 0)
                warn(workload.name + ": " + d.render());
    };
    if (need_normal)
        gate(result.compiled.program, "compiled");
    if (need_oracle)
        gate(result.oracleCompiled.program, "oracle-compiled");
}

PolicyOutcome
ExperimentRunner::runPolicy(const BenchmarkResult &prepared,
                            Policy policy) const
{
    ScopedSpan span("simulate", prepared.name, policyName(policy));
    WallClock::time_point start = WallClock::now();
    EnergyModel energy = energyModel();
    const Program &binary = prepared.compiledFor(policy).program;
    PolicyOutcome outcome;
    outcome.policy = policy;

    AmnesicConfig amnesic = _config.amnesic;
    amnesic.policy = policy;
    AmnesicMachine machine(binary, energy, amnesic, _config.hierarchy,
                           _config.timing);

    // Site attribution always rides along (an aggregation, cheap);
    // the event tracer only when asked for. Both are passive — the
    // simulated outcome is identical with or without them, which the
    // differential harness re-proves on every corpus replay.
    SiteCollector sites;
    std::optional<AmnesicTracer> tracer;
    if (_config.traceEvents) {
        AmnesicTracer::Options options;
        options.memory = _config.traceMemory;
        options.maxRecords = _config.traceMaxRecords;
        tracer.emplace(options);
        tracer->attach(machine);  // installs the memory observer half
    }
    TeeTraceHooks tee(&sites, tracer ? &*tracer : nullptr);
    machine.setTraceHooks(&tee);

    machine.run(_config.runLimit);
    outcome.stats = machine.stats();
    outcome.sites = sites.sites();
    if (tracer)
        outcome.trace = std::move(tracer->buffer());
    outcome.edpGainPct =
        gainPercent(prepared.classic.edp(energy),
                    outcome.stats.edp(energy));
    outcome.energyGainPct =
        gainPercent(prepared.classic.energyNj(),
                    outcome.stats.energyNj());
    outcome.perfGainPct =
        gainPercent(prepared.classic.timeSeconds(energy),
                    outcome.stats.timeSeconds(energy));
    outcome.wallSec = secondsSince(start);
    span.counter("instrs", outcome.stats.dynInstrs);
    return outcome;
}

BenchmarkResult
ExperimentRunner::run(const Workload &workload) const
{
    return run(workload,
               {kAllPolicies, kAllPolicies + std::size(kAllPolicies)});
}

void
ExperimentRunner::stampManifest(RunManifest &manifest,
                                const ThreadPool *pool) const
{
    manifest.configDigest =
        fnv1aDigest(canonicalConfigString(_config));
    manifest.seed = _config.seed;
    manifest.jobsRequested = _config.jobs;
    manifest.jobsEffective = effectiveJobs();
    if (pool) {
        ThreadPool::Utilization u = pool->utilization();
        manifest.pool.jobsExecuted = u.jobsExecuted;
        manifest.pool.queueWaitSec = u.queueWaitSec;
        manifest.pool.workerBusySec = u.workerBusySec;
        manifest.pool.queueWaitBuckets = u.queueWaitBuckets;
    }
}

BenchmarkResult
ExperimentRunner::run(const Workload &workload,
                      const std::vector<Policy> &policies) const
{
    ScopedSpan run_span("run", workload.name);
    WallClock::time_point start = WallClock::now();
    unsigned jobs = effectiveJobs();
    std::optional<ThreadPool> pool;
    if (jobs > 1)
        pool.emplace(jobs);

    BenchmarkResult result;
    prepare(result, workload, policies, pool ? &*pool : nullptr);

    result.policies.resize(policies.size());
    parallelFor(pool ? &*pool : nullptr, policies.size(),
                [this, &result, &policies](std::size_t i) {
                    result.policies[i] = runPolicy(result, policies[i]);
                });
    for (const PolicyOutcome &outcome : result.policies)
        result.manifest.phases.simulateSec += outcome.wallSec;
    result.manifest.phases.totalSec = secondsSince(start);
    stampManifest(result.manifest, pool ? &*pool : nullptr);
    return result;
}

std::vector<BenchmarkResult>
ExperimentRunner::runMany(const std::vector<Workload> &workloads,
                          const std::vector<Policy> &policies) const
{
    ScopedSpan many_span("runMany");
    many_span.counter("workloads", workloads.size());
    many_span.counter("policies", policies.size());
    WallClock::time_point start = WallClock::now();
    unsigned jobs = effectiveJobs();
    if (jobs <= 1) {
        std::vector<BenchmarkResult> results;
        results.reserve(workloads.size());
        for (const Workload &workload : workloads)
            results.push_back(run(workload, policies));
        return results;
    }

    ThreadPool pool(jobs);
    std::vector<BenchmarkResult> results(workloads.size());

    // Phase 1 — per-workload preparation (classic run + compiles), one
    // task per workload: coarse enough to keep every core busy without
    // oversubscribing the compile replays.
    parallelFor(&pool, workloads.size(),
                [this, &results, &workloads, &policies](std::size_t i) {
                    prepare(results[i], workloads[i], policies, nullptr);
                });

    // Phase 2 — the flattened (workload × policy) matrix. Every cell
    // writes its own pre-allocated slot, so the merge order is the
    // input order regardless of scheduling.
    for (BenchmarkResult &result : results)
        result.policies.resize(policies.size());
    parallelFor(&pool, workloads.size() * policies.size(),
                [this, &results, &policies](std::size_t cell) {
                    std::size_t w = cell / policies.size();
                    std::size_t p = cell % policies.size();
                    results[w].policies[p] =
                        runPolicy(results[w], policies[p]);
                });

    // The pool is shared across the suite, so its utilization (and the
    // end-to-end wall-clock) describe the whole runMany call: every
    // manifest carries the same totals, while the per-phase seconds
    // above are genuinely per-workload.
    for (BenchmarkResult &result : results) {
        for (const PolicyOutcome &outcome : result.policies)
            result.manifest.phases.simulateSec += outcome.wallSec;
        result.manifest.phases.totalSec = secondsSince(start);
        stampManifest(result.manifest, &pool);
    }
    return results;
}

// Why the affine replay in breakEvenScale returns exactly what
// simulating every probe returns.
//
// With the decision model pinned, a run at scale s executes the same
// instruction stream and makes the same charges for every s. Memory-
// side charges are the same doubles at every scale; each non-memory
// charge is fl(c·s) for a configured EPI c (instrEnergyRef). Let E(s)
// be the exact sum of the unrounded charges. Then E(s) = M + s·C is
// affine, so with r = s/s0
//
//   (1)  E(s) = (2 − r)·E(s0) + (r − 1)·E(2·s0).
//
// A simulation returns Ê(s): the charges summed in doubles into four
// buckets, which energyNj() adds up. Let n = energyRoundings(stats)
// (below), u = 2^-53 and γ = n·u/(1 − n·u). Every charge is
// non-negative, and each passes through at most n roundings (its own
// product, then at most n − 1 additions), so the standard summation
// bound gives
//
//   (2)  |Ê(s) − E(s)| ≤ γ·E(s).
//
// The replay predicts P(r) = Ê(s0) + (r − 1)·(Ê(2s0) − Ê(s0)), which
// in exact arithmetic is (2 − r)·Ê(s0) + (r − 1)·Ê(2s0). Let
// F = |2 − r| + |r − 1| ≥ 1 and Emax = max(Ê(s0), Ê(2s0)). From (1)
// and (2), E(s0) and E(2s0) are at most Emax/(1 − γ), hence
//
//   |P(r) − E(s)| ≤ F·γ·Emax/(1 − γ),   and, as E(s) ≤ F·Emax/(1 − γ),
//   |Ê(s) − E(s)| ≤ F·γ·Emax/(1 − γ).
//
// Evaluating P in doubles (r = fl(s/s0), then a subtract, a multiply
// and an add) costs at most another 6u·F·Emax; 8u is used. Together:
//
//   (3)  |Ê(s) − P̂(r)| ≤ F·Emax·(2γ/(1 − γ) + 8u)  = roundingBound(r).
//
// The search reads only the sign of the energy gain. If the predicted
// gap Pc − Pa exceeds the classic plus the amnesic bound (3) in
// magnitude, the simulated gap Ĉ(s) − Â(s) has its sign.
// affineGapSign compares against twice that sum, which absorbs the
// rounding of r, of the bounds' own arithmetic and of the subtraction
// Pc − Pa (all relative errors of a few u). Energies are non-negative,
// so gainPercent(c, a) > 0 exactly when c > a. Inside the margin the
// search simulates the probe. (Slice instructions are charged one by
// one and counted in dynInstrs; the per-slice sums the machine
// precomputes only feed traces, so they add no term of their own.)
//
// Neither anchor is simulated here. The s0 pair is the caller's, and
// the 2·s0 pair is derived from it (atDoubledNonMemScale). A non-memory
// charge at 2·s0 is fl(c·2·s0) = 2·fl(c·s0) exactly: doubling changes
// only the exponent, and the charges are far from overflow and from
// subnormals. Sums of doubled values are doubled sums for the same
// reason, so the nonMemNj bucket at 2·s0 is exactly twice its s0 value,
// while loadNj, storeNj and histReadNj hold the same unscaled charges
// in the same order. Hence Ê(2s0) above is the derived total, bit for
// bit. This holds only while every scaled charge goes to nonMemNj and
// no unscaled charge does: REC's cost is not scaled, and the machine
// charges it to storeNj (AmnesicMachine::execRec). tests/
// breakeven_test.cc pins it by simulating 2·s0 for every registry
// workload under every policy and comparing every bucket.

namespace {

constexpr double kUnitRoundoff =
    std::numeric_limits<double>::epsilon() / 2.0;

/** n for (2): a bound on the roundings `stats.energyNj()` went
 * through. A load or store charges itself plus up to two write-backs;
 * a slice instruction itself plus one Hist read; an RCMP itself, a
 * probe, and a fallback load with its write-backs. The buckets' total
 * adds three more. */
std::uint64_t
energyRoundings(const SimStats &stats)
{
    return 3 * stats.dynInstrs + 2 * stats.rcmpSeen + 3;
}

}  // namespace

AffineEnergy
AffineEnergy::through(const SimStats &at_s0, const SimStats &at_2s0)
{
    AMNESIAC_ASSERT(at_s0.dynInstrs == at_2s0.dynInstrs &&
                        at_s0.rcmpSeen == at_2s0.rcmpSeen,
                    "break-even: the instruction stream changed with the "
                    "charged scale");
    return {at_s0.energyNj(), at_2s0.energyNj(), energyRoundings(at_s0)};
}

double
AffineEnergy::predict(double r) const
{
    return atS0 + (r - 1.0) * (at2S0 - atS0);
}

double
AffineEnergy::roundingBound(double r) const
{
    // γ/(1 − γ) = n·u/(1 − 2·n·u); past n·u = 1/2 nothing is bounded.
    const double nu = static_cast<double>(terms) * kUnitRoundoff;
    if (!(nu < 0.5))
        return std::numeric_limits<double>::infinity();
    const double extrapolation = std::abs(2.0 - r) + std::abs(r - 1.0);
    return extrapolation * std::max(atS0, at2S0) *
           (2.0 * nu / (1.0 - 2.0 * nu) + 8.0 * kUnitRoundoff);
}

int
affineGapSign(const AffineEnergy &classic, const AffineEnergy &amnesic,
              double r)
{
    const double gap = classic.predict(r) - amnesic.predict(r);
    const double margin =
        2.0 * (classic.roundingBound(r) + amnesic.roundingBound(r));
    if (gap > margin)
        return 1;
    if (gap < -margin)
        return -1;
    return 0;  // also when the margin is +∞
}

SimStats
atDoubledNonMemScale(const SimStats &at_s0)
{
    SimStats at_2s0 = at_s0;
    at_2s0.energy.nonMemNj *= 2.0;
    return at_2s0;
}

double
breakEvenScale(const Workload &workload, const ExperimentConfig &config,
               Policy policy, double max_scale)
{
    // Compile once at the configured scale: the binary (slice set) is
    // an artifact of today's technology point.
    CompilerConfig compiler_config = config.compiler;
    compiler_config.oracleSet = needsOracleSet(policy);
    compiler_config.runLimit = config.runLimit;
    AmnesicCompiler compiler(EnergyModel(config.energy), config.hierarchy,
                             compiler_config);
    const CompileResult compiled = compiler.compile(workload.program);
    ExperimentConfig pinned = config;
    pinned.amnesic.decisionNonMemScale = config.energy.nonMemScale;
    const SimStats amnesic_s0 =
        ExperimentRunner(pinned).runAmnesic(compiled.program, policy);
    return breakEvenScale(workload, compiled, compiled.profileRun,
                          amnesic_s0, config, policy, max_scale);
}

double
breakEvenScale(const Workload &workload, const CompileResult &compiled,
               const SimStats &classic_s0, const SimStats &amnesic_s0,
               const ExperimentConfig &config, Policy policy,
               double max_scale)
{
    ScopedSpan span("breakeven", workload.name);
    std::uint64_t probes = 0;
    std::uint64_t fallbacks = 0;
    auto finish = [&](double scale) {
        span.counter("probes", probes);
        // Only a fallback simulates a pair.
        span.counter("simulated_pairs", fallbacks);
        span.counter("fallbacks", fallbacks);
        return scale;
    };

    const double s0 = config.energy.nonMemScale;
    if (compiled.slices.empty())
        return finish(s0);  // nothing to trade: break-even is immediate

    struct Pair
    {
        SimStats classic;
        SimStats amnesic;

        // The crossing is searched on the *energy* gain: recomputation
        // keeps its latency advantage at any R in this model, so an
        // EDP-based crossing need not exist (see EXPERIMENTS.md).
        bool gains() const
        {
            return gainPercent(classic.energyNj(), amnesic.energyNj()) >
                   0.0;
        }
    };
    ++probes;
    const Pair at_s0{classic_s0, amnesic_s0};
    if (!at_s0.gains())
        return finish(s0);
    const Pair at_2s0{atDoubledNonMemScale(classic_s0),
                      atDoubledNonMemScale(amnesic_s0)};
    const AffineEnergy classic =
        AffineEnergy::through(at_s0.classic, at_2s0.classic);
    const AffineEnergy amnesic =
        AffineEnergy::through(at_s0.amnesic, at_2s0.amnesic);
    // A probe inside the rounding margin simulates its own pair.
    auto simulate = [&](double scale) {
        ExperimentConfig scaled = config;
        scaled.energy.nonMemScale = scale;
        // Pin the scheduler's decision model to the compile-time scale
        // so only the energy bill changes with R.
        scaled.amnesic.decisionNonMemScale = s0;
        ExperimentRunner runner(scaled);
        return Pair{runner.runClassic(workload.program),
                    runner.runAmnesic(compiled.program, policy)};
    };
    auto gains_at = [&](double scale) {
        ++probes;
        if (scale == 2.0 * s0)
            return at_2s0.gains();
        if (int sign = affineGapSign(classic, amnesic, scale / s0))
            return sign > 0;
        ++fallbacks;
        return simulate(scale).gains();
    };

    // Exponential bracket, then bisection on the sign change.
    double lo = s0;
    double hi = lo * 2.0;
    while (hi < max_scale && gains_at(hi))
        hi *= 2.0;
    if (hi >= max_scale && gains_at(max_scale))
        return finish(max_scale);
    for (int iter = 0; iter < 12; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (gains_at(mid))
            lo = mid;
        else
            hi = mid;
    }
    return finish(0.5 * (lo + hi));
}

}  // namespace amnesiac
