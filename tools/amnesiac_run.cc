/**
 * @file
 * amnesiac-run: command-line driver for the full pipeline on one
 * workload, and the place to get every observability artifact of that
 * run.
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
 *   --jsonl <path>         write the JSONL event stream
 *   --site-report <path>   write the ranked per-RCMP-site report
 *   --metrics <path>       write Prometheus metrics for the run
 *   --manifest <path>      write the run manifest JSON
 *   --memory               also trace every load/store (large!)
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
 * Every value flag accepts both `--flag value` and `--flag=value`; an
 * artifact path of /dev/stdout prints it. The event streams and site
 * reports are deterministic: same (workload, policy, config, seed) →
 * byte-identical artifacts, independent of --jobs.
 */

#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.h"
#include "isa/disasm.h"
#include "isa/serialize.h"
#include "obs/manifest.h"
#include "report/experiment.h"
#include "report/obs_export.h"
#include "util/args.h"
#include "util/table.h"
#include "workloads/registry.h"

using namespace amnesiac;

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::vector<Policy> policies(std::begin(kAllPolicies),
                                 std::end(kAllPolicies));
    bench::BenchArgs args;
    ExperimentConfig &config = args.config;
    bool csv = false;
    bool disasm = false;
    std::string save_path;
    std::string jsonl_path;
    std::string manifest_path;

    ArgReader reader(argc, argv,
                     std::string("[--list] [--policy <p>] [--hist <n>] "
                                 "[--sfile <n>] [--per-site-model] "
                                 "[--jsonl <path>] [--manifest <path>] "
                                 "[--memory] [--csv] [--disasm] "
                                 "[--save <path>] ") +
                         bench::kSharedSynopsis + " <workload>");
    while (reader.next()) {
        const std::string &flag = reader.arg();
        if (bench::parseSharedFlag(reader, args))
            continue;
        if (flag == "--list") {
            for (const std::string &name : registeredWorkloads())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (flag == "--policy") {
            const std::string name = reader.value();
            Policy policy{};
            if (parsePolicy(name, policy))
                policies.assign(1, policy);
            else if (name == "all")
                policies.assign(std::begin(kAllPolicies),
                                std::end(kAllPolicies));
            else
                reader.fail("unknown policy '" + name + "'");
        } else if (flag == "--hist") {
            config.amnesic.histCapacity = static_cast<std::uint32_t>(
                reader.number(std::numeric_limits<std::uint32_t>::max()));
        } else if (flag == "--sfile") {
            config.amnesic.sfileCapacity = static_cast<std::uint32_t>(
                reader.number(std::numeric_limits<std::uint32_t>::max()));
        } else if (flag == "--per-site-model") {
            config.compiler.globalResidenceModel = false;
        } else if (flag == "--jsonl") {
            jsonl_path = reader.value();
        } else if (flag == "--manifest") {
            manifest_path = reader.value();
        } else if (flag == "--memory") {
            config.traceMemory = true;
        } else if (flag == "--save") {
            save_path = reader.value();
        } else if (flag == "--csv") {
            csv = true;
        } else if (flag == "--disasm") {
            disasm = true;
        } else {
            workload_name = reader.positional();
        }
    }
    if (workload_name.empty())
        reader.fail("no workload given");
    if (!isRegisteredWorkload(workload_name)) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     workload_name.c_str());
        return 2;
    }
    bench::finishArgs(args);
    config.traceEvents = config.traceEvents || !jsonl_path.empty();

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

    const std::vector<BenchmarkResult> results = {
        runner.run(workload, policies)};
    const BenchmarkResult &result = results.front();
    bench::writeObsArtifacts(args, results);
    if (!jsonl_path.empty())
        bench::writeArtifact(jsonl_path, renderRunTraceJsonl(results));
    if (!manifest_path.empty())
        bench::writeArtifact(manifest_path,
                             renderManifestJson(result.manifest) + "\n");
    EnergyModel energy = runner.energyModel();

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
