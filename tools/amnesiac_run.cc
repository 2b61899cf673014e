/**
 * @file
 * amnesiac-run: command-line driver for the full pipeline.
 *
 *   amnesiac-run [options] <workload>
 *
 *   --list                 list registered workloads and exit
 *   --policy <name>        Compiler|FLC|LLC|C-Oracle|Oracle|Predictor|all
 *                          (default: all)
 *   --jobs <n>             experiment-pipeline worker threads
 *                          (0 = hardware_concurrency, 1 = serial)
 *   --cache-dir <path>     compiled-artifact cache directory (default:
 *                          $AMNESIAC_CACHE_DIR if set, else disabled)
 *   --no-cache             disable the artifact cache
 *   --seed <n>             workload seed (default 1)
 *   --scale <x>            non-memory EPI scale, the §5.5 R knob
 *   --timing <b>           cycle backend: scalar | pipelined
 *   --predictor <p>        pipelined branch predictor:
 *                          nottaken | bimodal | gshare
 *   --hist <n>             Hist capacity (default 600)
 *   --sfile <n>            SFile capacity (default 192)
 *   --per-site-model       use the exact per-site Eld model instead of
 *                          the paper's global §3.1.1 model
 *   --trace <path>         write a Chrome/Perfetto trace of the run
 *   --site-report <path>   write the ranked per-RCMP-site report
 *   --metrics <path>       write Prometheus metrics for the run
 *   --max-records <n>      per-policy trace buffer cap
 *   --prof                 host-side span profiling (flame table to
 *                          stderr at exit unless redirected)
 *   --prof-out <path>      host spans as Chrome trace JSON (implies
 *                          --prof; also merged into --trace output)
 *   --prof-report <path>   flame table destination (implies --prof)
 *   --csv                  machine-readable output
 *   --save <path>          write the compiled amnesic binary and exit
 *   --disasm               dump the rewritten binary and exit
 *
 * Every value flag accepts both `--flag value` and `--flag=value`.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "bench/common.h"
#include "isa/disasm.h"
#include "isa/serialize.h"
#include "obs/manifest.h"
#include "report/experiment.h"
#include "util/table.h"
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
                 "usage: %s [--list] [--policy <p>] [--seed <n>] "
                 "[--jobs <n>] "
                 "[--cache-dir <path>] [--no-cache] [--scale <x>] "
                 "[--timing <scalar|pipelined>] "
                 "[--predictor <nottaken|bimodal|gshare>] [--hist <n>] "
                 "[--sfile <n>] [--per-site-model] [--trace <path>] "
                 "[--site-report <path>] [--metrics <path>] "
                 "[--max-records <n>] [--prof] [--prof-out <path>] "
                 "[--prof-report <path>] [--csv] "
                 "[--disasm] [--save <path>] <workload>\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string policy_arg = "all";
    bench::BenchArgs args;
    ExperimentConfig &config = args.config;
    bool csv = false;
    bool disasm = false;
    std::string save_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_value = false;
        if (arg.size() >= 2 && arg[0] == '-') {
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
        if (arg == "--list") {
            for (const std::string &name : registeredWorkloads())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--policy") {
            policy_arg = next();
        } else if (arg == "--seed") {
            args.seed = number(std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--jobs") {
            config.jobs = static_cast<unsigned>(
                number(std::numeric_limits<unsigned>::max()));
        } else if (arg == "--cache-dir") {
            config.cacheDir = next();
        } else if (arg == "--no-cache") {
            config.noCache = true;
        } else if (arg == "--scale") {
            config.energy.nonMemScale = real();
        } else if (arg == "--timing") {
            std::string name = next();
            if (!parseTimingBackend(name, config.timing.backend)) {
                std::fprintf(stderr, "unknown timing backend '%s'\n",
                             name.c_str());
                return 2;
            }
        } else if (arg == "--predictor") {
            std::string name = next();
            if (!parsePredictorKind(name, config.timing.predictor)) {
                std::fprintf(stderr, "unknown predictor '%s'\n",
                             name.c_str());
                return 2;
            }
        } else if (arg == "--hist") {
            config.amnesic.histCapacity = static_cast<std::uint32_t>(
                number(std::numeric_limits<std::uint32_t>::max()));
        } else if (arg == "--sfile") {
            config.amnesic.sfileCapacity = static_cast<std::uint32_t>(
                number(std::numeric_limits<std::uint32_t>::max()));
        } else if (arg == "--per-site-model") {
            config.compiler.globalResidenceModel = false;
        } else if (arg == "--trace") {
            args.tracePath = next();
        } else if (arg == "--site-report") {
            args.siteReportPath = next();
        } else if (arg == "--metrics") {
            args.metricsPath = next();
        } else if (arg == "--max-records") {
            config.traceMaxRecords =
                number(std::numeric_limits<std::size_t>::max());
        } else if (arg == "--prof") {
            args.prof = true;
        } else if (arg == "--prof-out") {
            args.profOutPath = next();
        } else if (arg == "--prof-report") {
            args.profReportPath = next();
        } else if (arg == "--save") {
            save_path = next();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--disasm") {
            disasm = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
        } else {
            workload_name = arg;
        }
    }
    if (workload_name.empty())
        usage(argv[0]);
    if (!isRegisteredWorkload(workload_name)) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     workload_name.c_str());
        return 2;
    }
    config.traceEvents = !args.tracePath.empty();
    config.seed = args.seed;
    args.prof = args.prof || !args.profOutPath.empty() ||
                !args.profReportPath.empty();
    bench::enableHostProfiling(args);

    Workload workload = makeWorkload(workload_name, args.seed);
    ExperimentRunner runner(config);

    if (disasm || !save_path.empty()) {
        AmnesicCompiler compiler(runner.energyModel(), config.hierarchy,
                                 config.compiler);
        CompileResult compiled = compiler.compile(workload.program);
        if (!save_path.empty()) {
            saveProgram(compiled.program, save_path);
            std::printf("wrote %s (%zu instructions, %zu slices)\n",
                        save_path.c_str(), compiled.program.code.size(),
                        compiled.slices.size());
        }
        if (disasm)
            std::printf("%s", disassemble(compiled.program).c_str());
        return 0;
    }

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

    BenchmarkResult result = runner.run(workload, policies);
    EnergyModel energy = runner.energyModel();
    bench::writeObsArtifacts(args, {result});

    Table table({"policy", "EDP gain %", "energy gain %", "time gain %",
                 "recomputations", "fallbacks", "mismatches"});
    for (const PolicyOutcome &outcome : result.policies) {
        table.row()
            .cell(std::string(policyName(outcome.policy)))
            .cell(outcome.edpGainPct, 2)
            .cell(outcome.energyGainPct, 2)
            .cell(outcome.perfGainPct, 2)
            .cell(static_cast<long long>(outcome.stats.recomputations))
            .cell(static_cast<long long>(outcome.stats.fallbackLoads))
            .cell(static_cast<long long>(
                outcome.stats.recomputeMismatches));
    }
    if (csv) {
        std::printf("%s", table.renderCsv().c_str());
        return 0;
    }
    std::printf("workload: %s (seed %llu) — %s\n", workload.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                workload.description.c_str());
    std::printf("classic: %llu instrs, %.2f uJ, EDP %.4g J*s\n",
                static_cast<unsigned long long>(result.classic.dynInstrs),
                result.classic.energyNj() * 1e-3,
                result.classic.edp(energy));
    std::printf("slices: %zu selected (oracle set: %zu)\n",
                result.compiled.slices.size(),
                result.oracleCompiled.slices.size());
    std::printf("manifest: %s\n\n",
                renderManifestJson(result.manifest).c_str());
    std::printf("%s", table.render().c_str());
    return 0;
}
