/**
 * @file
 * Table 6 break-even search: the affine replay against the search that
 * simulates every probe, the identities that spare it its anchor
 * simulations, the sign decision that lets it skip a probe's
 * simulation, and the slice-free early exit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "isa/program_builder.h"
#include "report/experiment.h"
#include "util/thread_pool.h"
#include "workloads/kernels.h"
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

/** Every energy bucket and the total, bit for bit. */
void
expectSameEnergy(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.energy.loadNj, b.energy.loadNj);
    EXPECT_EQ(a.energy.storeNj, b.energy.storeNj);
    EXPECT_EQ(a.energy.nonMemNj, b.energy.nonMemNj);
    EXPECT_EQ(a.energy.histReadNj, b.energy.histReadNj);
    EXPECT_EQ(a.energyNj(), b.energyNj());
}

/**
 * The identities that let the search skip simulations, for one
 * workload under every policy of its matrix row at s0:
 *  - the derived 2·s0 stats equal a simulation at 2·s0 with the
 *    decisions pinned, classic and amnesic;
 *  - the matrix's unpinned runs equal runs pinned at s0;
 *  - the compile's profiling run equals the classic run whole on the
 *    scalar backend, which the profiling machine runs, and on the
 *    fields the search reads on the pipelined one;
 *  - the matrix's classic stats, which a cold scalar run takes from
 *    that profiling run, equal the classic run whole.
 */
void
expectAnchorIdentities(const Workload &workload,
                       const BenchmarkResult &result,
                       const ExperimentConfig &config)
{
    const double s0 = config.energy.nonMemScale;
    ExperimentConfig pinned = config;
    pinned.amnesic.decisionNonMemScale = s0;
    ExperimentConfig doubled = pinned;
    doubled.energy.nonMemScale = 2.0 * s0;
    const ExperimentRunner at_s0(pinned);
    const ExperimentRunner at_2s0(doubled);

    {
        SCOPED_TRACE(workload.name + " classic at s0 = " +
                     std::to_string(s0));
        expectSameEnergy(at_2s0.runClassic(workload.program),
                         atDoubledNonMemScale(result.classic));
        const SimStats &profiled = result.compiled.profileRun;
        ASSERT_EQ(config.timing.backend, TimingBackend::Scalar);
        const SimStats scalar =
            ExperimentRunner(config).runClassic(workload.program);
        EXPECT_TRUE(profiled == scalar);
        EXPECT_TRUE(result.classic == scalar);

        ExperimentConfig pipelined = config;
        pipelined.timing.backend = TimingBackend::Pipelined;
        const SimStats classic =
            ExperimentRunner(pipelined).runClassic(workload.program);
        expectSameEnergy(profiled, classic);
        EXPECT_EQ(profiled.dynInstrs, classic.dynInstrs);
        EXPECT_EQ(profiled.rcmpSeen, classic.rcmpSeen);
    }
    for (const PolicyOutcome &outcome : result.policies) {
        SCOPED_TRACE(workload.name + " " +
                     std::string(policyName(outcome.policy)) +
                     " at s0 = " + std::to_string(s0));
        const Program &binary =
            result.compiledFor(outcome.policy).program;
        const SimStats pinned_s0 = at_s0.runAmnesic(binary, outcome.policy);
        expectSameEnergy(outcome.stats, pinned_s0);
        EXPECT_EQ(outcome.stats.dynInstrs, pinned_s0.dynInstrs);
        EXPECT_EQ(outcome.stats.cycles, pinned_s0.cycles);
        EXPECT_EQ(outcome.stats.rcmpSeen, pinned_s0.rcmpSeen);
        EXPECT_EQ(outcome.stats.recomputations, pinned_s0.recomputations);
        expectSameEnergy(at_2s0.runAmnesic(binary, outcome.policy),
                         atDoubledNonMemScale(outcome.stats));
    }
}

/** Both searches over the whole registry at seed 1, fanned over a
 * small pool, compared with == on the doubles; the search on the
 * matrix's C-Oracle binary and s0 pair must return the same. One
 * registry-wide matrix over every policy also serves the anchor
 * identities above. */
void
expectSearchesAgree(double s0)
{
    ExperimentConfig config;
    config.energy.nonMemScale = s0;
    config.jobs = std::min(4u, ThreadPool::defaultThreadCount());
    config.noCache = true;  // a cache hit carries no profiling run
    const std::vector<std::string> names = registeredWorkloads();
    std::vector<Workload> workloads;
    for (const std::string &name : names)
        workloads.push_back(makeWorkload(name, 1));
    const std::vector<BenchmarkResult> matrix =
        ExperimentRunner(config).runMany(
            workloads, {std::begin(kAllPolicies), std::end(kAllPolicies)});
    ASSERT_EQ(matrix.size(), names.size());
    std::vector<double> per_probe(names.size());
    std::vector<double> affine(names.size());
    std::vector<double> precompiled(names.size());
    ThreadPool pool(config.jobs);
    parallelFor(&pool, names.size(), [&](std::size_t i) {
        const Workload &workload = workloads[i];
        const BenchmarkResult &result = matrix[i];
        per_probe[i] = perProbeBreakEvenScale(workload, config,
                                              Policy::COracle, 256.0);
        affine[i] = breakEvenScale(workload, config, Policy::COracle, 256.0);
        precompiled[i] = breakEvenScale(
            workload, result.compiledFor(Policy::COracle), result.classic,
            result.byPolicy(Policy::COracle)->stats, config,
            Policy::COracle, 256.0);
        expectAnchorIdentities(workload, result, config);
    });
    for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(matrix[i].name, names[i]);
        EXPECT_EQ(affine[i], per_probe[i])
            << names[i] << " at s0 = " << s0;
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
