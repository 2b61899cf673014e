/**
 * @file
 * Observability-layer tests (src/obs + the report-side exporters):
 *
 *  - MetricsRegistry semantics and a line-format check of its
 *    Prometheus text exposition;
 *  - TraceBuffer's deterministic record cap;
 *  - fnv1aDigest known-answer vectors and the canonical-config-string
 *    contract (jobs and trace knobs excluded, content fields included);
 *  - per-site attribution reconciling exactly against SimStats;
 *  - trace/site-report determinism: byte-identical across repeated
 *    runs and across jobs=1 vs jobs=4;
 *  - manifest population by the experiment pipeline, the profiler's
 *    counters included (nonzero on a cache miss, zero on a hit).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/site_metrics.h"
#include "obs/trace.h"
#include "report/experiment.h"
#include "report/obs_export.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

TEST(MetricsRegistry, CountersGaugesHistograms)
{
    MetricsRegistry metrics;
    metrics.counterAdd("amnesiac_runs_total");
    metrics.counterAdd("amnesiac_runs_total", 2.0);
    metrics.gaugeSet("amnesiac_energy_nj{workload=\"sr\"}", 42.5);
    metrics.gaugeSet("amnesiac_energy_nj{workload=\"sr\"}", 43.5);
    metrics.histogramObserve("amnesiac_slice_instrs", 3.0, 4.0, 8);
    metrics.histogramObserve("amnesiac_slice_instrs", 9.0, 4.0, 8);

    EXPECT_DOUBLE_EQ(metrics.value("amnesiac_runs_total"), 3.0);
    EXPECT_DOUBLE_EQ(metrics.value("amnesiac_energy_nj{workload=\"sr\"}"),
                     43.5);
    EXPECT_DOUBLE_EQ(metrics.value("missing"), 0.0);
}

TEST(MetricsRegistry, PrometheusLineFormat)
{
    MetricsRegistry metrics;
    metrics.counterAdd("amnesiac_recomputations_total"
                       "{workload=\"sr\",policy=\"FLC\"}",
                       12682);
    metrics.counterAdd("amnesiac_recomputations_total"
                       "{workload=\"sr\",policy=\"LLC\"}",
                       5309);
    metrics.gaugeSet("amnesiac_edp_gain_pct{workload=\"sr\"}", -5.94);
    metrics.histogramObserve("amnesiac_site_slice_instrs", 4.0, 4.0, 4);

    std::string text = metrics.renderPrometheus();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');

    // Text exposition format 0.0.4: every line is a comment/TYPE line
    // or `name{labels} value`.
    std::regex type_line(R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* )"
                         R"((counter|gauge|histogram))");
    std::regex sample_line(
        R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+]?)"
        R"(([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[0-9]+))");
    std::istringstream lines(text);
    std::string line;
    std::size_t samples = 0, types = 0;
    while (std::getline(lines, line)) {
        SCOPED_TRACE(line);
        if (line.rfind("# TYPE", 0) == 0) {
            EXPECT_TRUE(std::regex_match(line, type_line));
            ++types;
        } else {
            EXPECT_TRUE(std::regex_match(line, sample_line));
            ++samples;
        }
    }
    // One family per metric kind here; the histogram contributes
    // bucket/sum/count series.
    EXPECT_EQ(types, 3u);
    EXPECT_GE(samples, 2u + 1u + 4u + 3u);
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    // Same family rendered once even with two labeled series.
    EXPECT_EQ(text.find("# TYPE amnesiac_recomputations_total counter"),
              text.rfind("# TYPE amnesiac_recomputations_total counter"));
}

TEST(TraceBuffer, DeterministicRecordCap)
{
    TraceBuffer buffer(4);
    TraceRecord r;
    for (int i = 0; i < 10; ++i) {
        r.cycles = static_cast<std::uint64_t>(i);
        buffer.append(r);
    }
    EXPECT_EQ(buffer.size(), 4u);
    EXPECT_EQ(buffer.dropped(), 6u);
    // The kept prefix is the first four records — count-based, so the
    // truncation point can't depend on timing.
    EXPECT_EQ(buffer.records().back().cycles, 3u);
    std::string jsonl = renderTraceJsonl(buffer);
    EXPECT_NE(jsonl.find("\"kept\":4,\"dropped\":6"), std::string::npos);
}

TEST(Manifest, Fnv1aKnownVectors)
{
    // Standard FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1aDigest(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1aDigest("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1aDigest("foobar"), 0x85944171f73967e8ull);
}

TEST(Manifest, DigestCoversContentNotScheduling)
{
    ExperimentConfig base;
    ExperimentConfig jobs = base;
    jobs.jobs = 7;
    ExperimentConfig traced = base;
    traced.traceEvents = true;
    traced.traceMemory = true;
    traced.traceMaxRecords = 16;
    ExperimentConfig unpruned = base;
    unpruned.compiler.prune = false;
    // Scheduling, passive tracing, and the conservative-only static
    // pruner must not move the digest...
    EXPECT_EQ(ExperimentRunner::canonicalConfigString(base),
              ExperimentRunner::canonicalConfigString(jobs));
    EXPECT_EQ(ExperimentRunner::canonicalConfigString(base),
              ExperimentRunner::canonicalConfigString(traced));
    EXPECT_EQ(ExperimentRunner::canonicalConfigString(base),
              ExperimentRunner::canonicalConfigString(unpruned));
    // ...while every content knob must.
    ExperimentConfig hist = base;
    hist.amnesic.histCapacity += 1;
    ExperimentConfig scale = base;
    scale.energy.nonMemScale = 2.0;
    ExperimentConfig seeded = base;
    seeded.seed = 99;
    std::string canon = ExperimentRunner::canonicalConfigString(base);
    EXPECT_NE(canon, ExperimentRunner::canonicalConfigString(hist));
    EXPECT_NE(canon, ExperimentRunner::canonicalConfigString(scale));
    EXPECT_NE(canon, ExperimentRunner::canonicalConfigString(seeded));
}

TEST(Manifest, DefaultConfigDigestIsPinned)
{
    // Manifests and cache keys from earlier runs stay comparable only
    // while the canonical string keeps its exact bytes.
    EXPECT_EQ(fnv1aDigest(
                  ExperimentRunner::canonicalConfigString(ExperimentConfig{})),
              0xf84911f20a8cb2edull);
}

TEST(Manifest, RenderLeadsWithDeterministicFields)
{
    RunManifest manifest;
    manifest.configDigest = 0x123abcull;
    manifest.seed = 5;
    manifest.jobsRequested = 0;
    manifest.jobsEffective = 4;
    manifest.prunedCandidates = 17;
    std::string json = renderManifestJson(manifest);
    // prunedCandidates sits inside the deterministic prefix: it is a
    // pure function of program and config, not of scheduling.
    EXPECT_EQ(json.rfind("{\"configDigest\":\"0000000000123abc\","
                         "\"seed\":5,\"jobsRequested\":0,"
                         "\"jobsEffective\":4,\"prunedCandidates\":17,",
                         0),
              0u)
        << json;
}

/** One policy run with everything collected, for reuse below. */
BenchmarkResult
tracedRun(const std::string &workload, unsigned jobs,
          std::vector<Policy> policies = {Policy::Compiler, Policy::FLC})
{
    ExperimentConfig config;
    config.jobs = jobs;
    config.traceEvents = true;
    config.seed = 1;
    return ExperimentRunner(config).run(makeWorkload(workload, 1),
                                        policies);
}

TEST(SiteMetrics, ReconcilesAgainstSimStats)
{
    BenchmarkResult result = tracedRun("stream-recompute", 1);
    ASSERT_FALSE(result.policies.empty());
    for (const PolicyOutcome &outcome : result.policies) {
        SCOPED_TRACE(policyName(outcome.policy));
        SiteStats total;
        std::uint32_t last_pc = 0;
        bool first = true;
        for (const SiteStats &site : outcome.sites) {
            if (!first) {
                EXPECT_GT(site.pc, last_pc) << "sites must ascend by pc";
            }
            first = false;
            last_pc = site.pc;
            total.fires += site.fires;
            total.fallbacks += site.fallbacks;
            total.histMissAborts += site.histMissAborts;
            total.sfileAborts += site.sfileAborts;
        }
        // The tentpole invariant: per-site counts sum exactly to the
        // run's aggregate counters.
        EXPECT_EQ(total.fires, outcome.stats.recomputations);
        EXPECT_EQ(total.fallbacks, outcome.stats.fallbackLoads);
        EXPECT_EQ(total.histMissAborts, outcome.stats.histMissFallbacks);
        EXPECT_EQ(total.sfileAborts, outcome.stats.sfileAborts);
        // This workload actually swaps loads, so the report is not
        // vacuous.
        EXPECT_GT(total.fires + total.fallbacks, 0u);
    }
}

TEST(SiteMetrics, HistPressureSitesAttributeAborts)
{
    // hist-stress thrashes Hist by design: the attribution must show
    // where the pressure lands, not just that it exists.
    BenchmarkResult result = tracedRun("hist-stress", 1, {Policy::FLC});
    const PolicyOutcome &outcome = result.policies.front();
    std::uint64_t attributed = 0;
    for (const SiteStats &site : outcome.sites)
        attributed += site.histMissAborts + site.sfileAborts;
    EXPECT_EQ(attributed, outcome.stats.histMissFallbacks +
                              outcome.stats.sfileAborts);
}

TEST(SiteMetrics, ReportRanksAndTotals)
{
    BenchmarkResult result = tracedRun("stream-recompute", 1);
    const PolicyOutcome &outcome = result.policies.front();
    std::string report = renderSiteReport(outcome.sites, "title");
    EXPECT_EQ(report.rfind("# title\n", 0), 0u);
    EXPECT_NE(report.find("fires"), std::string::npos);
    EXPECT_NE(report.find("total"), std::string::npos);
    // Deterministic: rendering twice gives identical bytes.
    EXPECT_EQ(report, renderSiteReport(outcome.sites, "title"));
}

TEST(Tracing, EventStreamIsByteIdenticalAcrossRunsAndJobs)
{
    BenchmarkResult first = tracedRun("stream-recompute", 1);
    BenchmarkResult second = tracedRun("stream-recompute", 1);
    BenchmarkResult pooled = tracedRun("stream-recompute", 4);

    ASSERT_EQ(first.policies.size(), second.policies.size());
    ASSERT_EQ(first.policies.size(), pooled.policies.size());
    for (std::size_t i = 0; i < first.policies.size(); ++i) {
        SCOPED_TRACE(policyName(first.policies[i].policy));
        std::string a = renderTraceJsonl(first.policies[i].trace);
        EXPECT_FALSE(first.policies[i].trace.empty());
        EXPECT_EQ(a, renderTraceJsonl(second.policies[i].trace));
        EXPECT_EQ(a, renderTraceJsonl(pooled.policies[i].trace));
        EXPECT_EQ(renderSiteReport(first.policies[i].sites),
                  renderSiteReport(pooled.policies[i].sites));
    }
    // Config digests agree across jobs; only the scheduling fields and
    // wall-clocks may differ.
    EXPECT_EQ(first.manifest.configDigest, pooled.manifest.configDigest);
    EXPECT_EQ(first.manifest.seed, pooled.manifest.seed);
    // The concatenated JSONL export (run headers + events + the
    // deterministic manifest line) is byte-identical as a whole file.
    EXPECT_EQ(renderRunTraceJsonl({first}), renderRunTraceJsonl({pooled}));
}

TEST(Tracing, ChromeExportIsWellFormedAndDeterministic)
{
    BenchmarkResult result = tracedRun("stream-recompute", 1);
    std::vector<BenchmarkResult> results = {result};
    std::string chrome =
        renderChromeTrace(traceTracks(results), phaseSpans(results));
    EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(std::count(chrome.begin(), chrome.end(), '{'),
              std::count(chrome.begin(), chrome.end(), '}'));
    EXPECT_EQ(std::count(chrome.begin(), chrome.end(), '['),
              std::count(chrome.begin(), chrome.end(), ']'));
    // One named track per (workload, policy) with events.
    EXPECT_NE(chrome.find("stream-recompute/Compiler (cycles)"),
              std::string::npos);
    EXPECT_NE(chrome.find("stream-recompute/FLC (cycles)"),
              std::string::npos);
    // The deterministic half (event tracks) survives re-rendering
    // without the wall-clock phase spans.
    std::string events_only = renderChromeTrace(traceTracks(results));
    EXPECT_EQ(events_only, renderChromeTrace(traceTracks(results)));
}

TEST(Tracing, DisabledByDefaultAndSitesStillCollected)
{
    ExperimentConfig config;
    config.jobs = 1;
    BenchmarkResult result = ExperimentRunner(config).run(
        makeWorkload("stream-recompute", 1), {Policy::FLC});
    const PolicyOutcome &outcome = result.policies.front();
    EXPECT_TRUE(outcome.trace.empty());
    EXPECT_FALSE(outcome.sites.empty());
}

/** A jobs=2 run of stream-recompute for Compiler and FLC (no oracle
 * policy, so one slice set) under `config`. */
BenchmarkResult
twoPolicyRun(ExperimentConfig config)
{
    config.jobs = 2;
    config.seed = 1;
    return ExperimentRunner(config).run(
        makeWorkload("stream-recompute", 1), {Policy::Compiler, Policy::FLC});
}

/** The fields every jobs=2 run fills, whatever made its classic stats. */
void
expectPipelineFields(const RunManifest &manifest,
                     const ExperimentConfig &config)
{
    ExperimentConfig digested = config;
    digested.jobs = 2;
    digested.seed = 1;
    EXPECT_EQ(manifest.configDigest,
              fnv1aDigest(
                  ExperimentRunner::canonicalConfigString(digested)));
    EXPECT_EQ(manifest.seed, 1u);
    EXPECT_EQ(manifest.jobsRequested, 2u);
    EXPECT_EQ(manifest.jobsEffective, 2u);
    EXPECT_GT(manifest.phases.compileSec, 0.0);
    EXPECT_GT(manifest.phases.simulateSec, 0.0);
    EXPECT_GE(manifest.phases.totalSec, manifest.phases.classicSec);
    EXPECT_GT(manifest.pool.workerBusySec, 0.0);
}

TEST(Manifest, ColdScalarRunTakesClassicStatsFromTheProfile)
{
    ExperimentConfig config;
    config.noCache = true;
    const BenchmarkResult result = twoPolicyRun(config);
    const RunManifest &manifest = result.manifest;
    expectPipelineFields(manifest, config);
    // The compile's profiling run supplies the classic stats, so no
    // classic run is made: the pool runs the compile and the two
    // policy simulations.
    EXPECT_EQ(manifest.phases.classicSec, 0.0);
    EXPECT_EQ(manifest.pool.jobsExecuted, 3u);
    EXPECT_GT(result.classic.dynInstrs, 0u);
}

TEST(Manifest, PipelinedRunMakesItsOwnClassicRun)
{
    ExperimentConfig config;
    config.noCache = true;
    config.timing.backend = TimingBackend::Pipelined;
    const RunManifest manifest = twoPolicyRun(config).manifest;
    expectPipelineFields(manifest, config);
    // The profiling machine is scalar, so its cycles are not the
    // pipelined classic run's: the classic run, the compile and the
    // two policy simulations all go through the pool.
    EXPECT_GT(manifest.phases.classicSec, 0.0);
    EXPECT_EQ(manifest.pool.jobsExecuted, 4u);
}

TEST(Manifest, CacheHitMakesItsOwnClassicRun)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("amnesiac-manifest-cache-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    ExperimentConfig config;
    config.cacheDir = dir.string();
    const BenchmarkResult cold = twoPolicyRun(config);
    EXPECT_EQ(cold.manifest.cacheMisses, 1u);
    EXPECT_EQ(cold.manifest.phases.classicSec, 0.0);

    // The hit has no profiling run, so the classic run is made; the
    // pool runs it beside the cache read, then the two policy
    // simulations.
    const BenchmarkResult warm = twoPolicyRun(config);
    const RunManifest &manifest = warm.manifest;
    expectPipelineFields(manifest, config);
    EXPECT_EQ(manifest.cacheHits, 1u);
    EXPECT_GT(manifest.phases.classicSec, 0.0);
    EXPECT_EQ(manifest.pool.jobsExecuted, 4u);
    EXPECT_TRUE(warm.classic == cold.classic);

    // An entry that exists but fails to load compiles beside the
    // classic run, which then supplies the stats.
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        std::ofstream(entry.path(), std::ios::trunc) << "not an entry";
    const BenchmarkResult unreadable = twoPolicyRun(config);
    EXPECT_EQ(unreadable.manifest.cacheHits, 0u);
    EXPECT_EQ(unreadable.manifest.cacheMisses, 1u);
    EXPECT_GT(unreadable.manifest.phases.classicSec, 0.0);
    EXPECT_GT(unreadable.manifest.phases.profileSec, 0.0);
    EXPECT_EQ(unreadable.manifest.pool.jobsExecuted, 4u);
    EXPECT_TRUE(unreadable.classic == cold.classic);
    fs::remove_all(dir);
}

TEST(ObsExport, ProfilerCountersCountACacheMissOnly)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("amnesiac-obs-cache-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    ExperimentConfig config;
    config.jobs = 1;
    config.cacheDir = dir.string();
    const ExperimentRunner runner(config);
    const Workload workload = makeWorkload("stream-recompute", 1);
    const std::string label = "_total{workload=\"stream-recompute\"}";

    // The first run profiles and fills the cache; the second replays
    // the cached binary and profiles nothing.
    for (bool hit : {false, true}) {
        SCOPED_TRACE(hit ? "cache hit" : "cache miss");
        const std::vector<BenchmarkResult> results = {
            runner.run(workload, {Policy::FLC})};
        const RunManifest &manifest = results.front().manifest;
        EXPECT_EQ(manifest.cacheHits, hit ? 1u : 0u);
        const ProfilerCounters &counters = manifest.profiler;
        MetricsRegistry metrics;
        fillMetrics(metrics, results);
        for (auto [name, value] :
             {std::pair{"productions", counters.productions},
              std::pair{"arena_nodes", counters.arenaNodes},
              std::pair{"walk_nodes", counters.walkNodes},
              std::pair{"operand_probes", counters.operandProbes}}) {
            SCOPED_TRACE(name);
            if (hit)
                EXPECT_EQ(value, 0u);
            else
                EXPECT_GT(value, 0u);
            EXPECT_DOUBLE_EQ(
                metrics.value(std::string("amnesiac_profiler_") + name +
                              label),
                static_cast<double>(value));
        }
    }
    fs::remove_all(dir);
}

TEST(ObsExport, MetricsFromResultsPassLineFormatAndReconcile)
{
    BenchmarkResult result = tracedRun("stream-recompute", 1);
    std::vector<BenchmarkResult> results = {result};
    MetricsRegistry metrics;
    fillMetrics(metrics, results);

    for (const PolicyOutcome &outcome : result.policies) {
        std::string label = "{workload=\"stream-recompute\",policy=\"" +
                            std::string(policyName(outcome.policy)) +
                            "\"}";
        EXPECT_DOUBLE_EQ(
            metrics.value("amnesiac_recomputations_total" + label),
            static_cast<double>(outcome.stats.recomputations));
        EXPECT_DOUBLE_EQ(
            metrics.value("amnesiac_fallback_loads_total" + label),
            static_cast<double>(outcome.stats.fallbackLoads));
    }

    std::string text = metrics.renderPrometheus();
    std::regex line_ok(R"((# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* )"
                       R"((counter|gauge|histogram))|)"
                       R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? )"
                       R"([-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|inf|nan))");
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        SCOPED_TRACE(line);
        EXPECT_TRUE(std::regex_match(line, line_ok));
    }
    EXPECT_NE(text.find("amnesiac_phase_seconds"), std::string::npos);
}

TEST(ObsExport, JsonlStreamCarriesRunHeadersAndManifest)
{
    BenchmarkResult result = tracedRun("stream-recompute", 1,
                                       {Policy::FLC});
    std::vector<BenchmarkResult> results = {result};
    std::string jsonl = renderRunTraceJsonl(results);
    EXPECT_EQ(jsonl.rfind("{\"ev\":\"run\",\"workload\":"
                          "\"stream-recompute\",\"policy\":\"FLC\"}\n",
                          0),
              0u);
    EXPECT_NE(jsonl.find("{\"ev\":\"meta\","), std::string::npos);
    // The trailing manifest line is deterministic-fields-only, so the
    // whole stream diffs cleanly across runs and jobs values.
    EXPECT_NE(jsonl.find("{\"ev\":\"manifest\",\"configDigest\":\""),
              std::string::npos);
    EXPECT_EQ(jsonl.find("\"phases\""), std::string::npos);
}

}  // namespace
}  // namespace amnesiac
