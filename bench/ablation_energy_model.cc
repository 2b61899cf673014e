/**
 * @file
 * Ablation: the compiler's Eld model. The paper derives Pr_Li from
 * global per-level hit statistics (§3.1.1), which is exactly what makes
 * its Compiler policy fallible (sr, §5.1). Re-running selection with an
 * exact per-site model — a "better amnesic policy" in the §3.3.1
 * design-space sense — removes the degradation.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace amnesiac;
    bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::rejectObsArgs(args, argv[0]);
    ExperimentConfig config = args.config;
    bench::banner("Ablation: global vs per-site residence model", config);

    // One runMany per residence model, so the four workloads overlap.
    const std::vector<std::string> names = {"sr", "bfs", "is", "mcf"};
    std::vector<Workload> workloads;
    for (const std::string &name : names)
        workloads.push_back(makePaperBenchmark(name, args.seed));
    ExperimentConfig global_cfg = config;
    global_cfg.compiler.globalResidenceModel = true;
    ExperimentConfig site_cfg = config;
    site_cfg.compiler.globalResidenceModel = false;
    std::fprintf(stderr, "  [ablation] global model...\n");
    std::vector<BenchmarkResult> global =
        ExperimentRunner(global_cfg).runMany(workloads, {Policy::Compiler});
    std::fprintf(stderr, "  [ablation] per-site model...\n");
    std::vector<BenchmarkResult> site =
        ExperimentRunner(site_cfg).runMany(workloads, {Policy::Compiler});

    Table table({"bench", "Compiler EDP % (global model)",
                 "Compiler EDP % (per-site model)"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        table.row()
            .cell(names[i])
            .cell(global[i].byPolicy(Policy::Compiler)->edpGainPct, 2)
            .cell(site[i].byPolicy(Policy::Compiler)->edpGainPct, 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected: sr's degradation under the paper's global\n"
                "model disappears (or shrinks) with per-site estimates,\n"
                "while well-modeled benchmarks barely move.\n");
    return 0;
}
