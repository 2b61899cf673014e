/**
 * @file
 * Regenerates the paper's Table 6: the break-even point (§5.5) — by
 * what factor the relative energy cost of non-memory instructions (R)
 * must grow before amnesic execution stops paying off.
 *
 * The paper's exact procedure is underspecified; we compile and fix the
 * binary (and the scheduler's decision model) at R_default, then sweep
 * the *charged* non-memory scale until the C-Oracle energy gain
 * vanishes (see EXPERIMENTS.md for the discussion). The 11 searches
 * run over `--jobs` workers; rows print in suite order.
 */

#include <cstdio>
#include <optional>
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
    bench::banner("Table 6: break-even R (normalized to R_default)",
                  config);
    const ExperimentRunner runner(config);
    std::printf("R_default = EPI(int-alu) / EPI(DRAM load) = %.4f\n\n",
                runner.energyModel().ratioR());
    const std::vector<std::string> &names = paperBenchmarkNames();
    std::vector<double> scales(names.size());
    const unsigned jobs = runner.effectiveJobs();
    std::optional<ThreadPool> pool;
    if (jobs > 1)
        pool.emplace(jobs);
    parallelFor(pool ? &*pool : nullptr, names.size(), [&](std::size_t i) {
        std::fprintf(stderr, "  [table6] %s...\n", names[i].c_str());
        Workload w = makePaperBenchmark(names[i], args.seed);
        scales[i] = breakEvenScale(w, config, Policy::COracle, 256.0);
    });
    Table table({"Bench.", "Rbreakeven (normalized)"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        const double k = scales[i];
        table.row().cell(names[i]);
        if (k >= 256.0)
            table.cell(std::string(">256"));
        else
            table.cell(k, 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper shape: every benchmark tolerates a large (multi-x) growth\n"
        "of R before recomputation breaks even — current technology\n"
        "trends point the other way (§5.5, Table 6: 3.89x for bfs up to\n"
        "83.25x for bp).\n");
    return 0;
}
