/**
 * @file
 * Ablation: the compiler's slice-length cap (§3.4 "the compiler ...
 * caps the tree height h to maximize energy savings"). Sweeps the cap
 * on a long-chain workload and reports the gain curve — growth beyond
 * the budget has diminishing, then negative, returns.
 */

#include <cstdio>
#include <vector>

#include "common.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workloads/kernels.h"

int
main(int argc, char **argv)
{
    using namespace amnesiac;
    bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::rejectObsArgs(args, argv[0]);
    ExperimentConfig config = args.config;
    bench::banner("Ablation: slice length cap", config);
    WorkloadSpec spec;
    spec.name = "long-chain";
    spec.seed = args.seed;
    spec.chains = {{48, true, 16, 9, 80, 0, 20000}};
    Workload w = buildWorkload(spec);

    // One workload under seven configurations: the configurations are
    // what can overlap, one single-worker runner each on a shared pool.
    const std::vector<std::uint32_t> caps = {2, 4, 8, 16, 32, 50, 72};
    std::vector<BenchmarkResult> results(caps.size());
    ThreadPool pool(ExperimentRunner(config).effectiveJobs());
    parallelFor(&pool, caps.size(), [&](std::size_t i) {
        ExperimentConfig swept = config;
        swept.jobs = 1;
        swept.compiler.builder.maxInstrs = caps[i];
        swept.compiler.builder.maxHeight = caps[i];
        results[i] = ExperimentRunner(swept).run(w, {Policy::COracle});
    });

    Table table({"maxInstrs", "slices", "mean len", "C-Oracle EDP gain %"});
    for (std::size_t i = 0; i < caps.size(); ++i) {
        const BenchmarkResult &r = results[i];
        double mean = 0.0;
        for (const RSlice &slice : r.compiled.slices)
            mean += slice.length();
        if (!r.compiled.slices.empty())
            mean /= static_cast<double>(r.compiled.slices.size());
        table.row()
            .cell(static_cast<long long>(caps[i]))
            .cell(static_cast<long long>(r.compiled.slices.size()))
            .cell(mean, 1)
            .cell(r.byPolicy(Policy::COracle)->edpGainPct, 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected: tiny caps cannot host the full producer chain\n"
                "(mid-chain cuts fail validation and the site is left\n"
                "classic); once the chain fits, bigger caps change\n"
                "nothing.\n");
    return 0;
}
