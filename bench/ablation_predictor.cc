/**
 * @file
 * Ablation: branch-direction predictors under the pipelined timing
 * backend. The §3.3.1 future-work note asks for "more accurate
 * predictors"; with cycle accounting now pluggable (src/timing/) the
 * question becomes measurable: sweep the three direction predictors
 * (always-not-taken, bimodal 2-bit, gshare) over the paper suite and
 * report each one's accuracy, the cycles it burns on mispredict
 * flushes, how far it inflates the classic cycle count over the scalar
 * golden model, and what that does to the FLC policy's EDP gain.
 *
 * Because the backends share base latencies (the additive contract in
 * src/timing/timing.h), every EDP difference between rows is purely
 * hazard cycles — energy is bit-identical across all twelve
 * (workload x predictor) runs of a row group.
 */

#include <cstdio>
#include <vector>

#include "common.h"
#include "timing/predictor.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace amnesiac;
    bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::rejectObsArgs(args, argv[0]);
    ExperimentConfig config = args.config;
    bench::banner("Ablation: branch predictors (pipelined timing)",
                  config);

    // Scalar golden baseline for the inflation column.
    ExperimentConfig scalar_config = config;
    scalar_config.timing = TimingConfig{};
    std::vector<Workload> workloads;
    std::vector<SimStats> scalar_classic;
    for (const std::string &name : paperBenchmarkNames()) {
        std::fprintf(stderr, "  [predictor] %s...\n", name.c_str());
        workloads.push_back(makePaperBenchmark(name, args.seed));
        scalar_classic.push_back(ExperimentRunner(scalar_config)
                                     .runClassic(workloads.back().program));
    }

    // One suite run per predictor.
    std::vector<std::vector<BenchmarkResult>> by_kind;
    for (PredictorKind kind : kAllPredictorKinds) {
        std::fprintf(stderr, "  [predictor] suite under %s...\n",
                     std::string(predictorKindName(kind)).c_str());
        ExperimentConfig pipelined = config;
        pipelined.timing.backend = TimingBackend::Pipelined;
        pipelined.timing.predictor = kind;
        by_kind.push_back(
            ExperimentRunner(pipelined).runMany(workloads, {Policy::FLC}));
    }

    Table table({"bench", "predictor", "accuracy %", "mispredict cyc",
                 "cycle infl %", "FLC EDP %"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double scalar_cycles =
            static_cast<double>(scalar_classic[w].cycles);
        for (std::size_t k = 0; k < by_kind.size(); ++k) {
            const BenchmarkResult &r = by_kind[k][w];
            const SimStats &classic = r.classic;
            double inflation =
                100.0 *
                (static_cast<double>(classic.cycles) - scalar_cycles) /
                scalar_cycles;
            table.row()
                .cell(r.name)
                .cell(std::string(predictorKindName(kAllPredictorKinds[k])))
                .cell(100.0 * classic.branchPredictionAccuracy(), 2)
                .cell(static_cast<long long>(
                    classic.mispredictFlushCycles))
                .cell(inflation, 3)
                .cell(r.byPolicy(Policy::FLC)->edpGainPct, 2);
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Reading: the suite's kernels loop with strongly biased\n"
        "backward branches, so bimodal converges to near-perfect\n"
        "accuracy after one trip and gshare matches it on the\n"
        "monomorphic majority (history bits buy nothing there; on\n"
        "small tables they cost a little to aliasing). Where inner\n"
        "branches correlate - sr's short stencil inner loops - gshare\n"
        "pulls well ahead of bimodal. Always-not-taken mispredicts\n"
        "every loop-back edge, and the flush cycles it adds inflate\n"
        "classic and amnesic cycle counts alike - the FLC EDP column\n"
        "moves only by the (small) asymmetry between how many branches\n"
        "each side retires, which is the honest answer: recomputation\n"
        "neither hides nor amplifies branch cost in an in-order\n"
        "pipeline.\n");
    return 0;
}
