/**
 * @file
 * Table 6 break-even search: the affine replay against the search that
 * simulates every probe, the sign decision that lets the replay skip a
 * simulation, and the slice-free early exit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "isa/program_builder.h"
#include "report/experiment.h"
#include "util/thread_pool.h"
#include "workloads/kernels.h"
#include "workloads/paper_suite.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

/**
 * The break-even search as it was before the affine replay: one fresh
 * classic + amnesic simulation pair per probe of the bracket and the
 * bisection. This is its only copy; breakEvenScale must return exactly
 * what it returns. (Its slice-free exit returns s0, the fixed
 * behaviour; it used to return 1.0.)
 */
double
perProbeBreakEvenScale(const Workload &workload,
                       const ExperimentConfig &config, Policy policy,
                       double max_scale)
{
    ExperimentRunner base(config);
    CompilerConfig compiler_config = config.compiler;
    compiler_config.oracleSet = needsOracleSet(policy);
    compiler_config.runLimit = config.runLimit;
    AmnesicCompiler compiler(base.energyModel(), config.hierarchy,
                             compiler_config);
    CompileResult compiled = compiler.compile(workload.program);
    if (compiled.slices.empty())
        return config.energy.nonMemScale;

    auto gain_at = [&](double scale) {
        ExperimentConfig scaled = config;
        scaled.energy.nonMemScale = scale;
        scaled.amnesic.decisionNonMemScale = config.energy.nonMemScale;
        ExperimentRunner runner(scaled);
        SimStats classic = runner.runClassic(workload.program);
        SimStats amnesic = runner.runAmnesic(compiled.program, policy);
        return gainPercent(classic.energyNj(), amnesic.energyNj());
    };

    double lo = config.energy.nonMemScale;
    if (gain_at(lo) <= 0.0)
        return lo;
    double hi = lo * 2.0;
    while (hi < max_scale && gain_at(hi) > 0.0)
        hi *= 2.0;
    if (hi >= max_scale && gain_at(max_scale) > 0.0)
        return max_scale;
    for (int iter = 0; iter < 12; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (gain_at(mid) > 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Both searches over the whole registry at seed 1, fanned over a
 * small pool, compared with == on the doubles. For the paper mimics,
 * the search on the experiment matrix's C-Oracle binary
 * (compiledFor) must return the same. */
void
expectSearchesAgree(double s0)
{
    ExperimentConfig config;
    config.energy.nonMemScale = s0;
    config.jobs = std::min(4u, ThreadPool::defaultThreadCount());
    const std::vector<std::string> names = registeredWorkloads();
    const std::vector<BenchmarkResult> matrix =
        ExperimentRunner(config).runMany(makePaperSuite(1),
                                         {Policy::COracle});
    ASSERT_LE(matrix.size(), names.size());
    std::vector<double> per_probe(names.size());
    std::vector<double> affine(names.size());
    std::vector<double> precompiled(matrix.size());
    ThreadPool pool(config.jobs);
    parallelFor(&pool, names.size(), [&](std::size_t i) {
        const Workload workload = makeWorkload(names[i], 1);
        per_probe[i] = perProbeBreakEvenScale(workload, config,
                                              Policy::COracle, 256.0);
        affine[i] = breakEvenScale(workload, config, Policy::COracle, 256.0);
        if (i < matrix.size())
            precompiled[i] = breakEvenScale(
                workload, matrix[i].compiledFor(Policy::COracle), config,
                Policy::COracle, 256.0);
    });
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(affine[i], per_probe[i])
            << names[i] << " at s0 = " << s0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        ASSERT_EQ(matrix[i].name, names[i]);
        EXPECT_EQ(precompiled[i], affine[i])
            << names[i] << " on the matrix's binary at s0 = " << s0;
    }
}

TEST(BreakEven, AffineReplayEqualsPerProbeSearchAtDefaultScale)
{
    expectSearchesAgree(1.0);
}

TEST(BreakEven, AffineReplayEqualsPerProbeSearchAtNonDefaultScale)
{
    // Not a power of two, so s/s0 rounds and the bisection midpoints
    // are not dyadic multiples of s0.
    expectSearchesAgree(1.5);
}

TEST(BreakEven, SliceFreeWorkloadBreaksEvenAtItsStartingScale)
{
    ProgramBuilder b("no-loads");
    b.li(1, 7);
    b.alu(Opcode::Add, 2, 1, 1);
    b.halt();
    Workload workload{"no-loads", "", b.finish()};

    ExperimentConfig config;
    EXPECT_EQ(breakEvenScale(workload, config), 1.0);
    config.energy.nonMemScale = 2.0;
    EXPECT_EQ(breakEvenScale(workload, config), 2.0);
}

TEST(BreakEven, SignIsDecidedOnlyOutsideTheRoundingMargin)
{
    constexpr std::uint64_t kTerms = 1'000'000;
    const AffineEnergy classic{1000.0, 1500.0, kTerms};
    const AffineEnergy lower{900.0, 1400.0, kTerms};
    const AffineEnergy higher{1100.0, 1600.0, kTerms};
    const double r = 3.0;
    const double margin =
        2.0 * (classic.roundingBound(r) + lower.roundingBound(r));
    ASSERT_GT(margin, 0.0);

    // A gap of 100 nJ at every scale is far outside the margin.
    EXPECT_EQ(affineGapSign(classic, lower, r), 1);
    EXPECT_EQ(affineGapSign(classic, higher, r), -1);

    // Equal lines, and a gap of a tenth of the margin, stay undecided;
    // ten times the margin decides it.
    EXPECT_EQ(affineGapSign(classic, classic, r), 0);
    const double nudge = margin / 10.0;
    EXPECT_EQ(affineGapSign(classic,
                            {1000.0 - nudge, 1500.0 - nudge, kTerms}, r),
              0);
    const double shove = margin * 10.0;
    EXPECT_EQ(affineGapSign(classic,
                            {1000.0 - shove, 1500.0 - shove, kTerms}, r),
              1);

    // Past the point where rounding could swallow any gap, nothing is
    // decided: the bound is infinite.
    const std::uint64_t too_many = std::uint64_t{1} << 62;
    const AffineEnergy unbounded{1000.0, 1500.0, too_many};
    EXPECT_TRUE(std::isinf(unbounded.roundingBound(r)));
    EXPECT_EQ(affineGapSign(unbounded, {1.0, 2.0, too_many}, r), 0);
}

TEST(BreakEven, RoundingBoundGrowsWithTermsAndExtrapolation)
{
    const AffineEnergy few{1000.0, 1500.0, 1'000};
    const AffineEnergy many{1000.0, 1500.0, 1'000'000};
    EXPECT_LT(few.roundingBound(4.0), many.roundingBound(4.0));

    // Flat while interpolating between the anchors, growing beyond.
    EXPECT_EQ(many.roundingBound(1.0), many.roundingBound(2.0));
    EXPECT_EQ(many.roundingBound(1.5), many.roundingBound(2.0));
    EXPECT_LT(many.roundingBound(2.0), many.roundingBound(4.0));
    EXPECT_LT(many.roundingBound(4.0), many.roundingBound(64.0));
    EXPECT_LT(many.roundingBound(1.0), many.roundingBound(0.5));
}

TEST(BreakEven, SimulatedEnergiesStayWithinTheRoundingBound)
{
    // The derivation's claim on real runs: with the decisions pinned,
    // every simulated energy lies within roundingBound of the line
    // through the two anchor runs.
    WorkloadSpec spec;
    spec.name = "small";
    spec.chains = {{4, false, 15, 9, 100, 0, 6000}};
    const Workload workload = buildWorkload(spec);
    ExperimentConfig config;
    AmnesicCompiler compiler(EnergyModel(config.energy), config.hierarchy,
                             config.compiler);
    const CompileResult compiled = compiler.compile(workload.program);
    ASSERT_FALSE(compiled.slices.empty());

    auto run_at = [&](double scale) {
        ExperimentConfig scaled = config;
        scaled.energy.nonMemScale = scale;
        scaled.amnesic.decisionNonMemScale = 1.0;
        ExperimentRunner runner(scaled);
        return std::pair{runner.runClassic(workload.program),
                         runner.runAmnesic(compiled.program,
                                           Policy::COracle)};
    };
    const auto [c0, a0] = run_at(1.0);
    const auto [c1, a1] = run_at(2.0);
    const AffineEnergy classic = AffineEnergy::through(c0, c1);
    const AffineEnergy amnesic = AffineEnergy::through(a0, a1);
    for (double r : {1.25, 1.7, 3.0, 7.3, 100.0}) {
        const auto [c, a] = run_at(r);
        EXPECT_LE(std::abs(c.energyNj() - classic.predict(r)),
                  classic.roundingBound(r))
            << "classic at r = " << r;
        EXPECT_LE(std::abs(a.energyNj() - amnesic.predict(r)),
                  amnesic.roundingBound(r))
            << "amnesic at r = " << r;
    }
}

}  // namespace
}  // namespace amnesiac
