/**
 * @file
 * Experiment-pipeline tests pinned to the engine unification and
 * parallelization:
 *
 *  (a) classic stats produced by the unified interpreter match a
 *      golden snapshot captured from the pre-refactor (duplicated-loop)
 *      build for two mimic workloads — the refactor must be
 *      bit-invisible;
 *  (b) ExperimentRunner::run / runMany produce identical
 *      BenchmarkResult stats with jobs=1 and jobs=4 — the determinism
 *      guarantee of the (workload × policy) fan-out. The same check
 *      covers the observability artifacts: site tables, trace buffers,
 *      and the manifest's deterministic prefix;
 *  (c) the manifest's compile time is one wall-clock span inside the
 *      run, and its per-pass table accounts for all of it.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "report/experiment.h"
#include "report/figures.h"
#include "report/obs_export.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

void
expectStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.dynLoads, b.dynLoads);
    EXPECT_EQ(a.dynStores, b.dynStores);
    EXPECT_EQ(a.cycles, b.cycles);
    // Exact (bit-identical) energy: every job runs the same arithmetic
    // in the same order regardless of which thread hosts it.
    EXPECT_EQ(a.energy.loadNj, b.energy.loadNj);
    EXPECT_EQ(a.energy.storeNj, b.energy.storeNj);
    EXPECT_EQ(a.energy.nonMemNj, b.energy.nonMemNj);
    EXPECT_EQ(a.energy.histReadNj, b.energy.histReadNj);
    EXPECT_EQ(a.perCategory, b.perCategory);
    EXPECT_EQ(a.rcmpSeen, b.rcmpSeen);
    EXPECT_EQ(a.recomputations, b.recomputations);
    EXPECT_EQ(a.fallbackLoads, b.fallbackLoads);
    EXPECT_EQ(a.recomputedInstrs, b.recomputedInstrs);
    EXPECT_EQ(a.histReads, b.histReads);
    EXPECT_EQ(a.histWrites, b.histWrites);
    EXPECT_EQ(a.histOverflows, b.histOverflows);
    EXPECT_EQ(a.recomputeChecked, b.recomputeChecked);
    EXPECT_EQ(a.recomputeMismatches, b.recomputeMismatches);
    EXPECT_EQ(a.sfileAborts, b.sfileAborts);
    EXPECT_EQ(a.histMissFallbacks, b.histMissFallbacks);
    EXPECT_EQ(a.swappedByLevel, b.swappedByLevel);
    EXPECT_EQ(a.fallbackByLevel, b.fallbackByLevel);
    EXPECT_EQ(a.loadUseStalls, b.loadUseStalls);
    EXPECT_EQ(a.loadUseStallCycles, b.loadUseStallCycles);
    EXPECT_EQ(a.controlBubbles, b.controlBubbles);
    EXPECT_EQ(a.controlBubbleCycles, b.controlBubbleCycles);
    EXPECT_EQ(a.mispredictFlushes, b.mispredictFlushes);
    EXPECT_EQ(a.mispredictFlushCycles, b.mispredictFlushCycles);
    EXPECT_EQ(a.predictorHits, b.predictorHits);
    EXPECT_EQ(a.predictorMisses, b.predictorMisses);
}

void
expectSitesIdentical(const std::vector<SiteStats> &a,
                     const std::vector<SiteStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].sliceId, b[i].sliceId);
        EXPECT_EQ(a[i].fires, b[i].fires);
        EXPECT_EQ(a[i].fallbacks, b[i].fallbacks);
        EXPECT_EQ(a[i].histMissAborts, b[i].histMissAborts);
        EXPECT_EQ(a[i].sfileAborts, b[i].sfileAborts);
        EXPECT_EQ(a[i].mispredicts, b[i].mispredicts);
        EXPECT_EQ(a[i].sliceInstrs, b[i].sliceInstrs);
        EXPECT_EQ(a[i].estDeltaNj, b[i].estDeltaNj);
        EXPECT_EQ(a[i].realDeltaNj, b[i].realDeltaNj);
    }
}

void
expectTracesIdentical(const TraceBuffer &a, const TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.dropped(), b.dropped());
    if (a.empty())
        return;
    // TraceRecord is a packed POD of integers (doubles ride bit_cast
    // through `b`), so bytewise equality is the exact contract.
    EXPECT_EQ(std::memcmp(a.records().data(), b.records().data(),
                          a.size() * sizeof(TraceRecord)),
              0);
}

void
expectResultsIdentical(const BenchmarkResult &a, const BenchmarkResult &b)
{
    EXPECT_EQ(a.name, b.name);
    expectStatsIdentical(a.classic, b.classic);
    EXPECT_EQ(a.compiled.slices.size(), b.compiled.slices.size());
    EXPECT_EQ(a.oracleCompiled.slices.size(),
              b.oracleCompiled.slices.size());
    ASSERT_EQ(a.policies.size(), b.policies.size());
    for (std::size_t i = 0; i < a.policies.size(); ++i) {
        EXPECT_EQ(a.policies[i].policy, b.policies[i].policy);
        expectStatsIdentical(a.policies[i].stats, b.policies[i].stats);
        EXPECT_EQ(a.policies[i].edpGainPct, b.policies[i].edpGainPct);
        EXPECT_EQ(a.policies[i].energyGainPct, b.policies[i].energyGainPct);
        EXPECT_EQ(a.policies[i].perfGainPct, b.policies[i].perfGainPct);
        expectSitesIdentical(a.policies[i].sites, b.policies[i].sites);
        expectTracesIdentical(a.policies[i].trace, b.policies[i].trace);
    }
    // Provenance: same content config → same digest and seed; only the
    // scheduling fields and wall-clocks may differ between the two runs.
    EXPECT_EQ(a.manifest.configDigest, b.manifest.configDigest);
    EXPECT_EQ(a.manifest.seed, b.manifest.seed);
}

// Golden classic-execution snapshot, captured from the pre-refactor
// build (separate Machine/AmnesicMachine interpreter loops) at the
// default ExperimentConfig, seed 1. The unified interpreter must reproduce
// it exactly; doubles are %.17g round-trips, compared bitwise.
struct GoldenClassic
{
    const char *workload;
    std::uint64_t dynInstrs, dynLoads, dynStores, cycles;
    double loadNj, storeNj, nonMemNj;
};

constexpr GoldenClassic kGolden[] = {
    {"is", 8190306, 508000, 155585, 33009583,
     9002724.5000510905, 2420098.150001917, 3512340.4503743784},
    {"stream-recompute", 607700, 20000, 32768, 1762069,
     161630.51999998756, 320389.11999992508, 273465.00000249944},
};

TEST(ExperimentTest, UnifiedEngineMatchesPreRefactorGolden)
{
    ExperimentRunner runner{ExperimentConfig{}};
    for (const GoldenClassic &golden : kGolden) {
        SCOPED_TRACE(golden.workload);
        SimStats stats =
            runner.runClassic(makeWorkload(golden.workload, 1).program);
        EXPECT_EQ(stats.dynInstrs, golden.dynInstrs);
        EXPECT_EQ(stats.dynLoads, golden.dynLoads);
        EXPECT_EQ(stats.dynStores, golden.dynStores);
        EXPECT_EQ(stats.cycles, golden.cycles);
        EXPECT_EQ(stats.energy.loadNj, golden.loadNj);
        EXPECT_EQ(stats.energy.storeNj, golden.storeNj);
        EXPECT_EQ(stats.energy.nonMemNj, golden.nonMemNj);
        EXPECT_EQ(stats.energy.histReadNj, 0.0);
    }
}

TEST(ExperimentTest, ParallelRunMatchesSerialRun)
{
    Workload workload = makeWorkload("stream-recompute", 1);

    ExperimentConfig serial_config;
    serial_config.jobs = 1;
    ExperimentConfig parallel_config;
    parallel_config.jobs = 4;

    BenchmarkResult serial =
        ExperimentRunner(serial_config).run(workload);
    BenchmarkResult parallel =
        ExperimentRunner(parallel_config).run(workload);
    expectResultsIdentical(serial, parallel);
    // Sanity: the pipeline actually exercised the amnesic path.
    EXPECT_FALSE(serial.policies.empty());
    EXPECT_GT(serial.classic.dynInstrs, 0u);
}

TEST(ExperimentTest, ParallelRunManyMatchesSerial)
{
    std::vector<Workload> workloads = {
        makeWorkload("stream-recompute", 1),
        makeWorkload("hist-stress", 1),
    };
    std::vector<Policy> policies = {Policy::Compiler, Policy::FLC,
                                    Policy::Oracle};

    ExperimentConfig serial_config;
    serial_config.jobs = 1;
    ExperimentConfig parallel_config;
    parallel_config.jobs = 4;

    auto serial =
        ExperimentRunner(serial_config).runMany(workloads, policies);
    auto parallel =
        ExperimentRunner(parallel_config).runMany(workloads, policies);

    ASSERT_EQ(serial.size(), workloads.size());
    ASSERT_EQ(parallel.size(), workloads.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(workloads[i].name);
        // Deterministic input-order merge: slot i is workload i.
        EXPECT_EQ(serial[i].name, workloads[i].name);
        expectResultsIdentical(serial[i], parallel[i]);
    }
}

TEST(ExperimentTest, FullRegistryReportsAreByteIdenticalAcrossJobs)
{
    // The strongest form of the fan-out determinism guarantee: over the
    // *entire* workload registry, the serial path (jobs=1) and the
    // hardware-sized pool (jobs=0) must render byte-identical report
    // artifacts — figures and tables, not just raw counters. Policy list
    // kept to the two cheapest (no oracle-set recompile) so the sweep
    // stays inside the ctest budget.
    std::vector<Workload> workloads;
    for (const std::string &name : registeredWorkloads())
        workloads.push_back(makeWorkload(name, 1));
    std::vector<Policy> policies = {Policy::Compiler, Policy::FLC};

    ExperimentConfig serial_config;
    serial_config.jobs = 1;
    ExperimentConfig parallel_config;
    parallel_config.jobs = 0;  // hardware_concurrency

    auto render = [](const std::vector<BenchmarkResult> &results) {
        std::string out = renderGainFigure(results, GainMetric::Edp);
        out += renderGainFigure(results, GainMetric::Energy);
        out += renderGainFigure(results, GainMetric::Time);
        out += renderTable4(results);
        out += renderTable5(results);
        // The observability artifacts obey the same contract: site
        // reports and the manifest's deterministic prefix (digest,
        // seed, jobsRequested is excluded by construction) must not
        // move with the worker count.
        out += renderAllSiteReports(results);
        for (const BenchmarkResult &result : results) {
            std::string manifest = renderManifestJson(result.manifest);
            out += manifest.substr(0, manifest.find("\"jobsRequested\""));
            out += '\n';
        }
        return out;
    };

    auto serial =
        ExperimentRunner(serial_config).runMany(workloads, policies);
    auto parallel =
        ExperimentRunner(parallel_config).runMany(workloads, policies);

    ASSERT_EQ(serial.size(), workloads.size());
    ASSERT_EQ(parallel.size(), workloads.size());
    EXPECT_EQ(render(serial), render(parallel));
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(workloads[i].name);
        expectResultsIdentical(serial[i], parallel[i]);
    }
}

TEST(ExperimentTest, RepeatedParallelRunsAreStable)
{
    // Rerunning the same parallel configuration must be a fixed point:
    // no run-to-run scheduling effect may leak into the stats. Tracing
    // is on so the record-for-record trace comparison is non-vacuous.
    Workload workload = makeWorkload("stream-recompute", 7);
    ExperimentConfig config;
    config.jobs = 4;
    config.traceEvents = true;
    ExperimentRunner runner(config);
    BenchmarkResult first = runner.run(workload);
    BenchmarkResult second = runner.run(workload);
    expectResultsIdentical(first, second);
    EXPECT_FALSE(first.policies.front().trace.empty());
}

TEST(ExperimentTest, CompileTimeFitsInsideTheRun)
{
    // Both slice sets come from one compile call that runs beside the
    // classic reference, so the compile wall-clock cannot exceed the
    // run's; the gap-free lap tables of the two sets add up to it.
    ExperimentConfig config;
    config.jobs = 4;
    config.noCache = true;
    BenchmarkResult result = ExperimentRunner(config).run(makeWorkload("mcf"));
    const PhaseTimes &phases = result.manifest.phases;
    EXPECT_GT(phases.compileSec, 0.0);
    EXPECT_LE(phases.compileSec, phases.totalSec);
    double passes_sec = 0.0;
    for (const PassTime &pass : result.manifest.passes)
        passes_sec += pass.sec;
    EXPECT_NEAR(passes_sec, phases.compileSec, 0.01 * phases.compileSec);
}

TEST(ExperimentTest, OnlyOracleRunsTheOracleSet)
{
    // C-Oracle is an oracle *scheduler* over the probabilistic slice
    // set; only Oracle runs the oracle set. Table 6 reads its binary
    // through compiledFor, so this mapping decides its rows.
    BenchmarkResult result;
    EXPECT_EQ(&result.compiledFor(Policy::Oracle), &result.oracleCompiled);
    for (Policy policy : {Policy::COracle, Policy::Compiler, Policy::FLC,
                          Policy::LLC, Policy::Predictor})
        EXPECT_EQ(&result.compiledFor(policy), &result.compiled)
            << policyName(policy);
}

}  // namespace
}  // namespace amnesiac
