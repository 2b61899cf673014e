#include "report/obs_export.h"

#include <cinttypes>
#include <cstdio>

#include "obs/manifest.h"
#include "util/json.h"

namespace amnesiac {

namespace {

std::string
runName(const BenchmarkResult &result, const PolicyOutcome &outcome)
{
    return result.name + "/" + std::string(policyName(outcome.policy));
}

/** name{workload="...",policy="..."} */
std::string
labeled(const char *name, const std::string &workload,
        std::string_view policy)
{
    std::string out = name;
    out += "{workload=\"";
    out += workload;
    out += "\",policy=\"";
    out += policy;
    out += "\"}";
    return out;
}

/** The pipelined backend's hazard counters for one run (all zero under
 * the scalar backend — exported anyway so dashboards can difference
 * backends without schema changes). */
void
fillPipelineMetrics(MetricsRegistry &metrics, const std::string &workload,
                    std::string_view policy, const SimStats &s)
{
    metrics.counterAdd(
        labeled("amnesiac_load_use_stalls_total", workload, policy),
        static_cast<double>(s.loadUseStalls));
    metrics.counterAdd(
        labeled("amnesiac_control_bubbles_total", workload, policy),
        static_cast<double>(s.controlBubbles));
    metrics.counterAdd(
        labeled("amnesiac_mispredict_flushes_total", workload, policy),
        static_cast<double>(s.mispredictFlushes));
    metrics.counterAdd(
        labeled("amnesiac_predictor_hits_total", workload, policy),
        static_cast<double>(s.predictorHits));
    metrics.counterAdd(
        labeled("amnesiac_predictor_misses_total", workload, policy),
        static_cast<double>(s.predictorMisses));
    metrics.counterAdd(
        labeled("amnesiac_hazard_cycles_total", workload, policy),
        static_cast<double>(s.hazardCycles()));
}

}  // namespace

std::vector<TraceTrack>
traceTracks(const std::vector<BenchmarkResult> &results)
{
    std::vector<TraceTrack> tracks;
    for (const BenchmarkResult &result : results)
        for (const PolicyOutcome &outcome : result.policies)
            if (!outcome.trace.empty())
                tracks.push_back({runName(result, outcome),
                                  &outcome.trace});
    return tracks;
}

std::vector<PhaseSpan>
phaseSpans(const std::vector<BenchmarkResult> &results)
{
    // Durations are real; the layout is synthetic (phases end to end
    // per workload, workloads end to end) — the viewer track answers
    // "where does the time go", not "when did it run".
    std::vector<PhaseSpan> spans;
    double cursor = 0.0;
    auto span = [&](const std::string &name, double sec) {
        if (sec <= 0.0)
            return;
        spans.push_back({name, cursor, sec * 1e6});
        cursor += sec * 1e6;
    };
    for (const BenchmarkResult &result : results) {
        const PhaseTimes &phases = result.manifest.phases;
        span("classic " + result.name, phases.classicSec);
        span("compile " + result.name, phases.compileSec);
        span("simulate " + result.name, phases.simulateSec);
    }
    return spans;
}

std::string
renderAllSiteReports(const std::vector<BenchmarkResult> &results)
{
    std::string out;
    for (const BenchmarkResult &result : results)
        for (const PolicyOutcome &outcome : result.policies) {
            out += renderSiteReport(outcome.sites,
                                    runName(result, outcome));
            out += "\n";
        }
    return out;
}

std::string
renderRunTraceJsonl(const std::vector<BenchmarkResult> &results)
{
    std::string out;
    json::Writer w(out);
    char digest[24];
    for (const BenchmarkResult &result : results)
        for (const PolicyOutcome &outcome : result.policies) {
            w.beginObject().key("ev").string("run");
            w.key("workload").string(result.name);
            w.key("policy").string(policyName(outcome.policy));
            w.endObject();
            out += '\n';
            out += renderTraceJsonl(outcome.trace);
            // Only the manifest's deterministic fields ride in the
            // stream: the whole file must stay byte-identical across
            // runs and `jobs` values, so the wall-clock half lives in
            // the separate --manifest artifact.
            std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                          result.manifest.configDigest);
            w.beginObject().key("ev").string("manifest");
            w.key("configDigest").string(digest);
            w.key("seed").integer(result.manifest.seed);
            w.endObject();
            out += '\n';
        }
    return out;
}

void
fillMetrics(MetricsRegistry &metrics,
            const std::vector<BenchmarkResult> &results)
{
    for (const BenchmarkResult &result : results) {
        const std::string &w = result.name;
        metrics.counterAdd(
            labeled("amnesiac_instructions_total", w, "classic"),
            static_cast<double>(result.classic.dynInstrs));
        metrics.gaugeSet(labeled("amnesiac_energy_nj", w, "classic"),
                         result.classic.energyNj());
        fillPipelineMetrics(metrics, w, "classic", result.classic);

        for (const PolicyOutcome &o : result.policies) {
            std::string_view p = policyName(o.policy);
            const SimStats &s = o.stats;
            metrics.counterAdd(
                labeled("amnesiac_instructions_total", w, p),
                static_cast<double>(s.dynInstrs));
            metrics.counterAdd(
                labeled("amnesiac_recomputations_total", w, p),
                static_cast<double>(s.recomputations));
            metrics.counterAdd(
                labeled("amnesiac_fallback_loads_total", w, p),
                static_cast<double>(s.fallbackLoads));
            metrics.counterAdd(
                labeled("amnesiac_hist_overflows_total", w, p),
                static_cast<double>(s.histOverflows));
            metrics.counterAdd(
                labeled("amnesiac_hist_miss_fallbacks_total", w, p),
                static_cast<double>(s.histMissFallbacks));
            metrics.counterAdd(
                labeled("amnesiac_sfile_aborts_total", w, p),
                static_cast<double>(s.sfileAborts));
            metrics.counterAdd(
                labeled("amnesiac_shadow_mismatches_total", w, p),
                static_cast<double>(s.recomputeMismatches));
            fillPipelineMetrics(metrics, w, p, s);
            metrics.gaugeSet(labeled("amnesiac_energy_nj", w, p),
                             s.energyNj());
            metrics.gaugeSet(labeled("amnesiac_edp_gain_pct", w, p),
                             o.edpGainPct);
            metrics.gaugeSet(labeled("amnesiac_energy_gain_pct", w, p),
                             o.energyGainPct);
            metrics.gaugeSet(labeled("amnesiac_time_gain_pct", w, p),
                             o.perfGainPct);
            // Fig 6 as a live metric: mean slice instructions per
            // instance, one observation per active site.
            for (const SiteStats &site : o.sites)
                if (site.instances())
                    metrics.histogramObserve(
                        labeled("amnesiac_site_slice_instrs", w, p),
                        static_cast<double>(site.sliceInstrs) /
                            static_cast<double>(site.instances()),
                        4.0, 32);
        }

        // Manifest-derived gauges: wall clock, explicitly diagnostic.
        const RunManifest &m = result.manifest;
        auto phase = [&](const char *name, double sec) {
            metrics.gaugeSet("amnesiac_phase_seconds{workload=\"" + w +
                                 "\",phase=\"" + name + "\"}",
                             sec);
        };
        phase("classic", m.phases.classicSec);
        phase("compile", m.phases.compileSec);
        phase("profile", m.phases.profileSec);
        phase("simulate", m.phases.simulateSec);
        phase("total", m.phases.totalSec);
        metrics.gaugeSet("amnesiac_analysis_pass_seconds{workload=\"" +
                             w + "\"}",
                         m.phases.analysisSec);
        metrics.counterAdd("amnesiac_candidates_pruned_total{workload=\"" +
                               w + "\"}",
                           static_cast<double>(m.prunedCandidates));
        metrics.counterAdd("amnesiac_cache_hits_total{workload=\"" + w +
                               "\"}",
                           static_cast<double>(m.cacheHits));
        metrics.counterAdd("amnesiac_cache_misses_total{workload=\"" + w +
                               "\"}",
                           static_cast<double>(m.cacheMisses));
        const ProfilerCounters &prof = m.profiler;
        auto profiler = [&](const char *name, std::uint64_t value) {
            metrics.counterAdd(std::string("amnesiac_profiler_") + name +
                                   "_total{workload=\"" + w + "\"}",
                               static_cast<double>(value));
        };
        profiler("productions", prof.productions);
        profiler("arena_nodes", prof.arenaNodes);
        profiler("walk_nodes", prof.walkNodes);
        profiler("operand_probes", prof.operandProbes);
        // The per-pass split of compileSec (satellite of analysisSec:
        // prune and gate are its pass-level refinement).
        for (const PassTime &pass : m.passes)
            metrics.gaugeSet("amnesiac_compiler_pass_seconds{workload=\"" +
                                 w + "\",pass=\"" + pass.name + "\"}",
                             pass.sec);
        metrics.gaugeSet("amnesiac_jobs_effective{workload=\"" + w + "\"}",
                         m.jobsEffective);
        metrics.gaugeSet("amnesiac_pool_jobs_executed",
                         static_cast<double>(m.pool.jobsExecuted));
        metrics.gaugeSet("amnesiac_pool_queue_wait_seconds",
                         m.pool.queueWaitSec);
        metrics.gaugeSet("amnesiac_pool_worker_busy_seconds",
                         m.pool.workerBusySec);
    }

    // Queue-wait distribution: the pool's bucketed counts, replayed as
    // weighted observations at bucket midpoints. In runMany every
    // manifest carries the same pool-lifetime totals (the pool is
    // shared), so only the first result's buckets are replayed — for
    // per-run pools this is the run that produced results.front().
    if (!results.empty()) {
        const PoolStats &pool = results.front().manifest.pool;
        for (std::size_t i = 0; i < pool.queueWaitBuckets.size(); ++i) {
            if (pool.queueWaitBuckets[i] == 0)
                continue;
            metrics.histogramObserve(
                "amnesiac_threadpool_queue_wait_seconds",
                (static_cast<double>(i) + 0.5) * kQueueWaitBucketSec,
                kQueueWaitBucketSec, kQueueWaitBucketCount,
                static_cast<double>(pool.queueWaitBuckets[i]));
        }
    }
}

void
fillHostSpanMetrics(MetricsRegistry &metrics,
                    const std::vector<SpanProfiler::ThreadSpans> &threads)
{
    for (const auto &thread : threads) {
        for (const SpanRecord &record : thread.spans) {
            std::string_view name(record.name);
            const std::size_t space = name.find(' ');
            if (space != std::string_view::npos)
                name = name.substr(0, space);
            std::string series = "amnesiac_host_span_seconds{span=\"";
            series += name;
            series += "\"}";
            // 10 ms buckets: pipeline steps range from sub-ms (cache
            // probes) to seconds (profiling); the tail clamps.
            metrics.histogramObserve(series, record.seconds(), 0.01, 50);
        }
    }
}

}  // namespace amnesiac
