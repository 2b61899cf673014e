/**
 * @file
 * amnesiac-trace: run one workload with full event tracing and render
 * the observability artifacts — the per-site attribution report, the
 * JSONL event stream, a Chrome/Perfetto trace, Prometheus metrics,
 * and the run manifest.
 *
 *   amnesiac-trace [options] <workload>
 *
 *   --policy <name>        Compiler|FLC|LLC|C-Oracle|Oracle|Predictor|all
 *                          (default: FLC)
 *   --seed <n>             workload seed (default 1)
 *   --jobs <n>             pipeline worker threads (default 0 = hw)
 *   --scale <x>            non-memory EPI scale (§5.5 R knob)
 *   --hist <n>             Hist capacity
 *   --sfile <n>            SFile capacity
 *   --jsonl <path>         write the JSONL event stream ('-' = stdout)
 *   --chrome <path>        write Chrome trace-event JSON
 *   --site-report <path>   write the ranked site report ('-' = stdout)
 *   --metrics <path>       write Prometheus metrics
 *   --manifest <path>      write the run manifest JSON ('-' = stdout)
 *   --memory               also trace every load/store (large!)
 *   --max-records <n>      per-policy trace buffer cap
 *   --prof                 host-side span profiling; --chrome output
 *                          gains pid-2 wall-clock tracks for the host
 *                          threads next to the simulated-cycle tracks
 *   --prof-out <path>      host spans as standalone Chrome trace JSON
 *                          (implies --prof)
 *   --prof-report <path>   aggregated flame table (implies --prof)
 *
 * With no output flags the site report prints to stdout. Every value
 * flag accepts both `--flag value` and `--flag=value`. The event
 * streams and site reports are deterministic: same (workload, policy,
 * config, seed) → byte-identical artifacts, independent of --jobs.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/manifest.h"
#include "report/obs_export.h"
#include "workloads/registry.h"

namespace {

using namespace amnesiac;

std::optional<Policy>
parsePolicy(const std::string &name)
{
    for (Policy policy : {Policy::Oracle, Policy::COracle, Policy::Compiler,
                          Policy::FLC, Policy::LLC, Policy::Predictor})
        if (name == policyName(policy))
            return policy;
    return std::nullopt;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--policy <p>] [--seed <n>] [--jobs <n>] "
                 "[--scale <x>] [--hist <n>] [--sfile <n>] "
                 "[--jsonl <path>] [--chrome <path>] "
                 "[--site-report <path>] [--metrics <path>] "
                 "[--manifest <path>] [--memory] [--max-records <n>] "
                 "[--prof] [--prof-out <path>] [--prof-report <path>] "
                 "<workload>\n",
                 argv0);
    std::exit(2);
}

/** Write to a file, or stdout for '-'. */
void
emit(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        return;
    }
    amnesiac::bench::writeArtifact(path, content);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string policy_arg = "FLC";
    std::uint64_t seed = 1;
    ExperimentConfig config;
    std::string jsonl_path, chrome_path, site_path, metrics_path,
        manifest_path;
    bench::BenchArgs prof_args;  // only the --prof triple is used

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_value = false;
        if (arg.size() >= 2 && arg[0] == '-' && arg != "-") {
            if (auto eq = arg.find('='); eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_value = true;
            }
        }
        auto next = [&]() -> std::string {
            if (has_value)
                return inline_value;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Numeric values must parse in full (bench::parseNumber).
        auto reject = [&](const std::string &text) {
            std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0],
                         text.c_str(), arg.c_str());
            usage(argv[0]);
        };
        auto number = [&](std::uint64_t max) {
            const std::string text = next();
            const std::optional<std::uint64_t> v =
                bench::parseNumber(text, max);
            if (!v)
                reject(text);
            return *v;
        };
        auto real = [&]() {
            const std::string text = next();
            const std::optional<double> v = bench::parseReal(text);
            if (!v)
                reject(text);
            return *v;
        };
        if (arg == "--policy") {
            policy_arg = next();
        } else if (arg == "--seed") {
            seed = number(std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--jobs") {
            config.jobs = static_cast<unsigned>(
                number(std::numeric_limits<unsigned>::max()));
        } else if (arg == "--scale") {
            config.energy.nonMemScale = real();
        } else if (arg == "--hist") {
            config.amnesic.histCapacity = static_cast<std::uint32_t>(
                number(std::numeric_limits<std::uint32_t>::max()));
        } else if (arg == "--sfile") {
            config.amnesic.sfileCapacity = static_cast<std::uint32_t>(
                number(std::numeric_limits<std::uint32_t>::max()));
        } else if (arg == "--jsonl") {
            jsonl_path = next();
        } else if (arg == "--chrome") {
            chrome_path = next();
        } else if (arg == "--site-report") {
            site_path = next();
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--manifest") {
            manifest_path = next();
        } else if (arg == "--memory") {
            config.traceMemory = true;
        } else if (arg == "--max-records") {
            config.traceMaxRecords =
                number(std::numeric_limits<std::size_t>::max());
        } else if (arg == "--prof") {
            prof_args.prof = true;
        } else if (arg == "--prof-out") {
            prof_args.profOutPath = next();
        } else if (arg == "--prof-report") {
            prof_args.profReportPath = next();
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            usage(argv[0]);
        } else {
            workload_name = arg;
        }
    }
    if (workload_name.empty())
        usage(argv[0]);
    if (!isRegisteredWorkload(workload_name)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return 2;
    }
    if (site_path.empty() && jsonl_path.empty() && chrome_path.empty() &&
        metrics_path.empty() && manifest_path.empty())
        site_path.assign(1, '-');  // default artifact
                                   // (assign: GCC 12 -Wrestrict FP)

    std::vector<Policy> policies;
    if (policy_arg == "all") {
        policies.assign(kAllPolicies,
                        kAllPolicies + std::size(kAllPolicies));
    } else if (auto policy = parsePolicy(policy_arg)) {
        policies.push_back(*policy);
    } else {
        std::fprintf(stderr, "unknown policy '%s'\n", policy_arg.c_str());
        return 2;
    }

    config.traceEvents = !jsonl_path.empty() || !chrome_path.empty();
    config.seed = seed;
    prof_args.prof = prof_args.prof || !prof_args.profOutPath.empty() ||
                     !prof_args.profReportPath.empty();
    bench::enableHostProfiling(prof_args);
    Workload workload = makeWorkload(workload_name, seed);
    ExperimentRunner runner(config);
    std::vector<BenchmarkResult> results = {runner.run(workload, policies)};

    // The pool is idle after run(), so collecting here honors the
    // profiler's quiescence contract; the exit-time --prof-out artifact
    // additionally covers the export work below.
    const std::vector<SpanProfiler::ThreadSpans> host =
        SpanProfiler::enabled() ? SpanProfiler::instance().collect()
                                : std::vector<SpanProfiler::ThreadSpans>{};
    if (!site_path.empty())
        emit(site_path, renderAllSiteReports(results));
    if (!jsonl_path.empty())
        emit(jsonl_path, renderRunTraceJsonl(results));
    if (!chrome_path.empty())
        emit(chrome_path,
             renderChromeTrace(traceTracks(results), phaseSpans(results),
                               host));
    if (!metrics_path.empty()) {
        MetricsRegistry metrics;
        fillMetrics(metrics, results);
        if (!host.empty())
            fillHostSpanMetrics(metrics, host);
        emit(metrics_path, metrics.renderPrometheus());
    }
    if (!manifest_path.empty())
        emit(manifest_path,
             renderManifestJson(results.front().manifest) + "\n");
    return 0;
}
