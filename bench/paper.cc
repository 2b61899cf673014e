/**
 * @file
 * Regenerates the paper's evaluation (§5) in one process: Table 1,
 * Figs 3–5, Tables 4–5, Figs 6–7, Table 6 and Fig 8, in that order.
 * Every section after Table 1 reads the same run of the 11-mimic ×
 * 5-policy matrix and leads with the Table 3 configuration banner.
 * Accepts the flags of bench::parseArgs; `--trace`/`--site-report`/
 * `--metrics` export the matrix run.
 *
 * Table 6 (§5.5) is the break-even point: by what factor the relative
 * energy cost of non-memory instructions (R) must grow before amnesic
 * execution stops paying off. The paper's exact procedure is
 * underspecified; the binary (and the scheduler's decision model) is
 * fixed at R_default and the *charged* non-memory scale is swept until
 * the C-Oracle energy gain vanishes (see EXPERIMENTS.md). The 11
 * searches reuse the matrix's compiles and run over `--jobs` workers.
 */

#include <cstdio>
#include <optional>
#include <vector>

#include "common.h"
#include "energy/tech.h"
#include "util/table.h"

namespace {

using namespace amnesiac;

void
printTable1()
{
    std::printf("AMNESIAC reproduction — Table 1: communication vs "
                "computation energy\n\n");
    Table table({"Technology Node", "Voltage (V)", "FMA (pJ)",
                 "SRAM load (pJ)", "SRAM/FMA", "DRAM/FMA"});
    for (const TechNode &node : table1Nodes()) {
        table.row()
            .cell(node.name)
            .cell(node.voltage, 2)
            .cell(node.fmaPj, 1)
            .cell(node.sramLoadPj, 1)
            .cell(node.sramOverFma(), 2)
            .cell(node.dramOverFma(), 1);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper Table 1 (normalized SRAM load): 40nm 1.55, "
                "10nm HP 5.75, 10nm LP 5.77.\n");
    std::printf("Paper §1: off-chip access > 50x FMA even at 40nm.\n\n");

    Table proj({"feature (nm)", "projected SRAM/FMA"});
    for (double nm : {40.0, 28.0, 20.0, 14.0, 10.0})
        proj.row().cell(nm, 0).cell(projectSramOverFma(nm), 2);
    std::printf("Scaling trend (log-interpolated):\n%s",
                proj.render().c_str());
}

void
printGainFigure(const char *title, const ExperimentConfig &config,
                const std::vector<BenchmarkResult> &results,
                GainMetric metric, const char *shape)
{
    bench::banner(title, config);
    std::printf("%s\n", renderGainFigure(results, metric).c_str());
    std::printf("Paper shape: %s\n", shape);
}

void
printFig6(const ExperimentConfig &config,
          const std::vector<BenchmarkResult> &results)
{
    bench::banner("Fig 6: instructions per RSlice", config);
    double short_slices = 0.0, long_slices = 0.0, total = 0.0;
    for (const BenchmarkResult &result : results) {
        std::printf("%s\n", renderFig6(result).c_str());
        for (const RSlice &slice : result.compiled.slices) {
            total += 1.0;
            short_slices += slice.length() < 10;
            long_slices += slice.length() > 50;
        }
    }
    std::printf("Across the suite: %.1f%% of RSlices are shorter than 10\n"
                "instructions and %.1f%% exceed 50 (paper: 78.32%% and\n"
                "0.09%% across its full site population).\n",
                total ? 100.0 * short_slices / total : 0.0,
                total ? 100.0 * long_slices / total : 0.0);
}

void
printTable6(const bench::BenchArgs &args,
            const std::vector<BenchmarkResult> &results)
{
    const ExperimentConfig &config = args.config;
    bench::banner("Table 6: break-even R (normalized to R_default)",
                  config);
    const ExperimentRunner runner(config);
    std::printf("R_default = EPI(int-alu) / EPI(DRAM load) = %.4f\n\n",
                runner.energyModel().ratioR());
    std::vector<double> scales(results.size());
    const unsigned jobs = runner.effectiveJobs();
    std::optional<ThreadPool> pool;
    if (jobs > 1)
        pool.emplace(jobs);
    parallelFor(pool ? &*pool : nullptr, results.size(), [&](std::size_t i) {
        const BenchmarkResult &result = results[i];
        std::fprintf(stderr, "  [table6] %s...\n", result.name.c_str());
        // The matrix's classic and C-Oracle runs are the search's s0
        // pair: its unpinned decisions are made at s0 already.
        scales[i] = breakEvenScale(
            makePaperBenchmark(result.name, args.seed),
            result.compiledFor(Policy::COracle), result.classic,
            result.byPolicy(Policy::COracle)->stats, config,
            Policy::COracle, 256.0);
    });
    Table table({"Bench.", "Rbreakeven (normalized)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        table.row().cell(results[i].name);
        if (scales[i] >= 256.0)
            table.cell(std::string(">256"));
        else
            table.cell(scales[i], 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper shape: every benchmark tolerates a large (multi-x) growth\n"
        "of R before recomputation breaks even — current technology\n"
        "trends point the other way (§5.5, Table 6: 3.89x for bfs up to\n"
        "83.25x for bp).\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseArgs(argc, argv);
    const ExperimentConfig &config = args.config;
    const std::vector<BenchmarkResult> results = bench::runSuite(args);

    printTable1();

    printGainFigure(
        "Fig 3: EDP gain under amnesic execution (%)", config, results,
        GainMetric::Edp,
        "is/mcf/ca largest; FLC >= LLC; only sr degrades, and\nonly "
        "under the Compiler policy; Oracle > C-Oracle for sx and cg.");
    printGainFigure("Fig 4: energy gain under amnesic execution (%)",
                    config, results, GainMetric::Energy,
                    "tracks Fig 3 with smaller magnitudes.");
    printGainFigure(
        "Fig 5: reduction in execution time (%)", config, results,
        GainMetric::Time,
        "tracks Fig 3 — loads are both energy-hungry and slow.");

    bench::banner("Table 4: dynamic instruction mix and energy breakdown",
                  config);
    std::printf("%s\n", renderTable4(results).c_str());
    std::printf(
        "Paper shape: instruction count rises a few percent while the\n"
        "dynamic load count falls; the load share of energy shrinks and\n"
        "the non-mem/store shares grow (REC checkpoints land in the\n"
        "store bucket); Hist reads stay a sub-percent contributor.\n");

    bench::banner("Table 5: residence profile of swapped loads", config);
    std::printf("%s\n", renderTable5(results).c_str());
    std::printf(
        "Paper shape: mcf/ca are DRAM-dominant, bfs/sr/rt are L1-\n"
        "dominant; FLC/LLC columns skew colder than Compiler because\n"
        "they only ever fire on cache misses. (FLC/LLC rows use the\n"
        "amnesic run's residence peek - see EXPERIMENTS.md.)\n");

    printFig6(config, results);

    bench::banner("Fig 7: RSlices with non-recomputable leaf inputs",
                  config);
    std::printf("%s\n", renderFig7(results).c_str());
    std::printf(
        "Paper shape: the w/ nc class dominates everywhere except is\n"
        "and bfs, whose slices are pure functions of live index state.\n");

    printTable6(args, results);

    bench::banner("Fig 8: value locality of swapped loads", config);
    for (const BenchmarkResult &result : results)
        std::printf("%s\n", renderFig8(result).c_str());
    std::printf(
        "Paper shape: most benchmarks show low locality (recomputation\n"
        "is orthogonal to memoization/load-value prediction); bfs and sr\n"
        "sit near 90-99%%, cg near 0%%.\n");
    return 0;
}
