/**
 * @file
 * Shared plumbing for the bench harnesses (the paper driver and the
 * ablations) and amnesiac-run: builds the 11-benchmark suite, runs the
 * §5 pipeline (fanned out over the experiment thread pool), parses the
 * command-line knobs they all share — including the
 * observability outputs (--trace / --site-report / --metrics) and the
 * host-side span profiler (--prof / --prof-out / --prof-report) — and
 * prints the Table 3 configuration echo every harness leads with.
 */

#ifndef AMNESIAC_BENCH_COMMON_H
#define AMNESIAC_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/span.h"
#include "report/experiment.h"
#include "report/figures.h"
#include "report/obs_export.h"
#include "util/args.h"
#include "workloads/paper_suite.h"

namespace amnesiac::bench {

/** Everything a harness can be configured with from the command line. */
struct BenchArgs
{
    ExperimentConfig config;
    std::uint64_t seed = 1;
    /** Observability outputs; empty = not requested. */
    std::string tracePath;       ///< Chrome trace-event JSON
    std::string siteReportPath;  ///< ranked per-site text report
    std::string metricsPath;     ///< Prometheus text exposition
    /** Host-side span profiling (process-wide, works in every harness
     * including the sweeps — the profiler aggregates over whatever the
     * process runs). */
    bool prof = false;           ///< --prof, implied by the two paths
    std::string profOutPath;     ///< host-span Chrome trace JSON
    std::string profReportPath;  ///< aggregated flame table (text)
};

inline void writeArtifact(const std::string &path,
                          const std::string &content);

/**
 * Turn on the host-side span profiler and register an exit-time writer
 * for its artifacts: the Chrome trace to `profOutPath` (if set) and the
 * flame table to `profReportPath` (if set) or stderr otherwise. Writing
 * at exit keeps the instrumentation window maximal — teardown included
 * — and spares its nine callers (the paper driver, the seven ablations
 * and amnesiac-run) any plumbing of their own.
 * No-op unless profiling was requested.
 */
inline void
enableHostProfiling(const BenchArgs &args)
{
    if (!args.prof)
        return;
    // atexit handlers cannot capture; stash the paths in function-local
    // statics (initialized exactly once, before the handler can run).
    static std::string prof_out;
    static std::string prof_report;
    prof_out = args.profOutPath;
    prof_report = args.profReportPath;
    SpanProfiler::instance().enable();
    std::atexit([]() {
        SpanProfiler::instance().disable();
        const std::vector<SpanProfiler::ThreadSpans> threads =
            SpanProfiler::instance().collect();
        if (!prof_out.empty())
            writeArtifact(prof_out, renderHostSpanChromeTrace(threads));
        if (!prof_report.empty())
            writeArtifact(prof_report, renderSpanFlameTable(threads));
        else
            std::fprintf(stderr, "\n[prof] host-span flame table\n%s",
                         renderSpanFlameTable(threads).c_str());
    });
}

/** Usage text of the flags parseSharedFlag() takes. */
inline const char kSharedSynopsis[] =
    "[--jobs <n>] [--cache-dir <path>] [--no-cache] [--seed <n>] "
    "[--scale <x>] [--timing <scalar|pipelined>] "
    "[--predictor <nottaken|bimodal|gshare>] [--trace <path>] "
    "[--site-report <path>] [--metrics <path>] [--max-records <n>] "
    "[--prof] [--prof-out <path>] [--prof-report <path>]";

/**
 * Take the reader's current argument if it is one of the flags every
 * bench binary and amnesiac-run share; false if it is not:
 *
 *   --jobs <n>          worker threads for the experiment pipeline
 *                       (0 = hardware_concurrency, 1 = serial; default 0)
 *   --cache-dir <path>  content-addressed artifact cache for compiled
 *                       binaries (default: $AMNESIAC_CACHE_DIR if set,
 *                       else disabled)
 *   --no-cache          disable the artifact cache even if a directory
 *                       is configured
 *   --seed <n>          workload seed (default 1)
 *   --scale <x>         non-memory EPI scale, the §5.5 R knob
 *   --timing <b>        cycle-accounting backend: scalar | pipelined
 *                       (default scalar, the historical golden model)
 *   --predictor <p>     branch predictor for the pipelined backend:
 *                       nottaken | bimodal | gshare (default bimodal)
 *   --trace <path>      write a Chrome/Perfetto trace of the run
 *   --site-report <path> write the ranked per-RCMP-site report
 *   --metrics <path>    write Prometheus metrics for the run
 *   --max-records <n>   per-policy trace buffer cap (count-based and
 *                       deterministic; exports state the dropped count)
 *   --prof              enable the host-side span profiler (flame
 *                       table to stderr at exit unless redirected)
 *   --prof-out <path>   write the host spans as Chrome trace JSON
 *                       (implies --prof)
 *   --prof-report <path> write the flame table there instead of
 *                       stderr (implies --prof)
 */
inline bool
parseSharedFlag(ArgReader &reader, BenchArgs &args)
{
    const std::string &flag = reader.arg();
    ExperimentConfig &config = args.config;
    if (flag == "--jobs") {
        config.jobs = static_cast<unsigned>(
            reader.number(std::numeric_limits<unsigned>::max()));
    } else if (flag == "--cache-dir") {
        config.cacheDir = reader.value();
    } else if (flag == "--no-cache") {
        config.noCache = true;
    } else if (flag == "--seed") {
        args.seed = reader.number();
    } else if (flag == "--scale") {
        config.energy.nonMemScale = reader.real();
    } else if (flag == "--timing") {
        const std::string name = reader.value();
        if (!parseTimingBackend(name, config.timing.backend))
            reader.fail("unknown timing backend '" + name +
                        "' (scalar | pipelined)");
    } else if (flag == "--predictor") {
        const std::string name = reader.value();
        if (!parsePredictorKind(name, config.timing.predictor))
            reader.fail("unknown predictor '" + name +
                        "' (nottaken | bimodal | gshare)");
    } else if (flag == "--trace") {
        args.tracePath = reader.value();
    } else if (flag == "--site-report") {
        args.siteReportPath = reader.value();
    } else if (flag == "--metrics") {
        args.metricsPath = reader.value();
    } else if (flag == "--max-records") {
        config.traceMaxRecords = reader.number();
    } else if (flag == "--prof") {
        args.prof = true;
    } else if (flag == "--prof-out") {
        args.profOutPath = reader.value();
    } else if (flag == "--prof-report") {
        args.profReportPath = reader.value();
    } else {
        return false;
    }
    return true;
}

/** Derive what the parsed flags imply and start host profiling if it
 * was asked for. */
inline void
finishArgs(BenchArgs &args)
{
    // Event buffering costs memory; only pay for it when the trace is
    // actually going somewhere. Site attribution is always on.
    args.config.traceEvents = !args.tracePath.empty();
    args.config.seed = args.seed;
    args.prof = args.prof || !args.profOutPath.empty() ||
                !args.profReportPath.empty();
    enableHostProfiling(args);
}

/** Parse a harness command line: the shared flags and nothing else. */
inline BenchArgs
parseArgs(int argc, char **argv)
{
    ArgReader reader(argc, argv, kSharedSynopsis);
    BenchArgs args;
    while (reader.next())
        if (!parseSharedFlag(reader, args))
            reader.unknown();
    finishArgs(args);
    return args;
}

/**
 * Harnesses that sweep many configurations (the ablations) have no
 * single result set to export, so the shared observability flags
 * cannot be honored there. Asking for one must fail loudly — a
 * requested artifact that silently never appears is worse than an
 * error.
 */
inline void
rejectObsArgs(const BenchArgs &args, const char *argv0)
{
    if (args.tracePath.empty() && args.siteReportPath.empty() &&
        args.metricsPath.empty())
        return;
    std::fprintf(stderr,
                 "%s: --trace/--site-report/--metrics are not supported "
                 "by this sweep harness (no single result set to "
                 "export); use amnesiac-run on the workload/config of "
                 "interest instead\n",
                 argv0);
    std::exit(2);
}

/** Print the standard harness banner. */
inline void
banner(const std::string &title, const ExperimentConfig &config)
{
    std::printf("==============================================================\n");
    std::printf("AMNESIAC reproduction — %s\n", title.c_str());
    std::printf("==============================================================\n");
    std::printf("%s\n", renderArchitectureTable(config).c_str());
}

/** Write `content` to `path`, aborting loudly on failure: a silently
 * missing artifact would defeat the point of asking for one. */
inline void
writeArtifact(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(stderr, "  [obs] wrote %s (%zu bytes)\n", path.c_str(),
                 content.size());
}

/** Emit whichever observability artifacts the arguments requested for
 * a finished set of results. */
inline void
writeObsArtifacts(const BenchArgs &args,
                  const std::vector<BenchmarkResult> &results)
{
    // A --trace/--metrics written while --prof is live also carries the
    // host spans recorded so far (the pool is idle here, so collect()'s
    // quiescence requirement holds); the exit-time --prof-out artifact
    // additionally covers teardown.
    const std::vector<SpanProfiler::ThreadSpans> host =
        SpanProfiler::enabled() ? SpanProfiler::instance().collect()
                                : std::vector<SpanProfiler::ThreadSpans>{};
    if (!args.tracePath.empty())
        writeArtifact(args.tracePath,
                      renderChromeTrace(traceTracks(results),
                                        phaseSpans(results), host));
    if (!args.siteReportPath.empty())
        writeArtifact(args.siteReportPath, renderAllSiteReports(results));
    if (!args.metricsPath.empty()) {
        MetricsRegistry metrics;
        fillMetrics(metrics, results);
        if (!host.empty())
            fillHostSpanMetrics(metrics, host);
        writeArtifact(args.metricsPath, metrics.renderPrometheus());
    }
}

/** Run every paper benchmark through the given policies, fanned out
 * over `args.config.jobs` workers (results are merged in suite order
 * and are bit-identical to a serial run), and write any requested
 * observability artifacts before returning. */
inline std::vector<BenchmarkResult>
runSuite(const BenchArgs &args,
         const std::vector<Policy> &policies =
             {kAllPolicies, kAllPolicies + std::size(kAllPolicies)})
{
    std::vector<Workload> workloads;
    for (const std::string &name : paperBenchmarkNames()) {
        std::fprintf(stderr, "  [suite] %s...\n", name.c_str());
        workloads.push_back(makePaperBenchmark(name, args.seed));
    }
    std::vector<BenchmarkResult> results =
        ExperimentRunner(args.config).runMany(workloads, policies);
    writeObsArtifacts(args, results);
    return results;
}

}  // namespace amnesiac::bench

#endif  // AMNESIAC_BENCH_COMMON_H
