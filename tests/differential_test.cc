/**
 * @file
 * Differential-fuzzing harness tests: crafted fault injections with
 * known outcomes (corrupted checkpoints must be *reported*, dropped
 * checkpoints and cache evictions must be *masked*), generated-case
 * sweeps proving no silent divergence, repro round-trips, minimizer
 * behaviour, and permanent replay of the tests/corpus seed cases.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/analyzer.h"
#include "core/compiler.h"
#include "obs/trace.h"
#include "testing/generator.h"
#include "testing/minimize.h"
#include "testing/oracle.h"
#include "testing/repro.h"
#include "workloads/kernels.h"

namespace amnesiac {
namespace {

/** Single nc chain whose one REC checkpoint feeds every recomputation:
 * the canonical target for Hist-corruption experiments. */
GenCase
ncChainCase()
{
    GenCase c;
    ChainSpec chain;
    chain.chainLen = 4;
    chain.nc = true;
    chain.logWords = 15;  // spills L1: the swapped load is profitable
    chain.hotLogWords = 8;
    chain.coldPercent = 100;
    // Enough consume traffic for the profiler to see a stable, hot,
    // perfectly-validating tree (sparse sampling of a 32K-word array
    // leaves the site under the selection thresholds).
    chain.consumes = 20000;
    c.spec.chains = {chain};
    c.spec.name = c.label();
    c.policies = {Policy::Compiler};  // every RCMP recomputes
    return c;
}

const PolicyReport &
only(const DifferentialReport &report)
{
    EXPECT_EQ(report.policies.size(), 1u);
    return report.policies.front();
}

TEST(DifferentialOracle, KnownHistCorruptionIsReported)
{
    GenCase c = ncChainCase();
    // The REC sits in the init loop, one checkpoint per produced word:
    // corrupt both lanes of the *last* write (event words-1), which is
    // never overwritten, so whichever lane the slice's Hist operand
    // reads, every consume-loop recomputation goes wrong.
    const std::uint64_t last_rec = (1ull << 15) - 1;
    c.faults = {{FaultKind::HistCorrupt, last_rec, 0xFF00, 0},
                {FaultKind::HistCorrupt, last_rec, 0xFF00, 1}};

    DifferentialReport report = runDifferential(c);
    ASSERT_GE(report.selectedSlices, 1u);
    const PolicyReport &pr = only(report);

    // The corruption fired, was flagged by the shadow check, and is
    // classified Detected — never a silent wrong answer, never a Bug.
    ASSERT_FALSE(pr.injected.empty());
    EXPECT_GT(pr.stats.recomputations, 0u);
    EXPECT_GT(pr.stats.recomputeMismatches, 0u);
    EXPECT_TRUE(pr.diverged());
    EXPECT_EQ(pr.verdict, Verdict::Detected);
    EXPECT_FALSE(report.failed());
}

TEST(DifferentialOracle, KnownSFileCorruptionIsReported)
{
    GenCase c = ncChainCase();
    c.spec.chains[0].nc = false;
    c.spec.chains[0].chainLen = 1;
    // Flip the low bit of the first value entering the scratch file.
    c.faults = {{FaultKind::SFileCorrupt, 0, 1, 0}};

    DifferentialReport report = runDifferential(c);
    ASSERT_GE(report.selectedSlices, 1u);
    const PolicyReport &pr = only(report);

    ASSERT_FALSE(pr.injected.empty());
    EXPECT_GT(pr.stats.recomputeMismatches, 0u);
    EXPECT_EQ(pr.verdict, Verdict::Detected);
    EXPECT_FALSE(report.failed());
}

TEST(DifferentialOracle, DroppedCheckpointIsMasked)
{
    GenCase c = ncChainCase();
    // Drop every REC write: Hist stays empty, every RCMP falls back to
    // the load via the Condition-II check — values stay right.
    c.faults = {{FaultKind::DropRec, 0, 0, 0}};

    DifferentialReport report = runDifferential(c);
    ASSERT_GE(report.selectedSlices, 1u);
    const PolicyReport &pr = only(report);

    ASSERT_FALSE(pr.injected.empty());
    EXPECT_GT(pr.stats.histMissFallbacks, 0u);
    EXPECT_EQ(pr.stats.recomputeMismatches, 0u);
    EXPECT_FALSE(pr.diverged());
    EXPECT_EQ(pr.verdict, Verdict::Masked);
    EXPECT_FALSE(report.failed());
}

TEST(DifferentialOracle, CacheEvictionIsAlwaysMasked)
{
    GenCase c = ncChainCase();
    c.faults = {{FaultKind::CacheEvict, 1000, 0, 0},
                {FaultKind::CacheEvict, 50000, 0, 0}};

    DifferentialReport report = runDifferential(c);
    const PolicyReport &pr = only(report);

    // Placement-only perturbation: it must fire and must not change a
    // single architectural bit (the oracle certifies a Bug otherwise).
    ASSERT_FALSE(pr.injected.empty());
    EXPECT_FALSE(pr.diverged());
    EXPECT_EQ(pr.verdict, Verdict::Masked);
    EXPECT_FALSE(report.failed());
}

TEST(FaultInjector, CacheEvictStepLoopMatchesRun)
{
    // A CacheEvict plan runs the machine through the injector's own
    // step() loop instead of Machine::run: with nothing due, the two
    // must agree bit for bit (FLC: cache state steers every RCMP).
    GenCase c = ncChainCase();
    EnergyModel energy(c.energy);
    const Program binary = AmnesicCompiler(energy, c.hierarchy, c.compiler)
                               .compile(buildWorkload(c.spec).program)
                               .program;
    AmnesicConfig config = c.amnesic;
    config.policy = Policy::FLC;
    auto machine = [&] {
        return AmnesicMachine(binary, energy, config, c.hierarchy,
                              c.timing);
    };

    auto plain = machine();
    plain.run(c.runLimit);
    ASSERT_TRUE(plain.halted());
    ASSERT_GE(binary.slices.size(), 1u);
    const std::uint64_t end = plain.stats().dynInstrs;

    // The halting instruction dispatches with dynInstrs < end, so a
    // trigger at `end` is past the run.
    auto stepped = machine();
    FaultInjector late({{FaultKind::CacheEvict, end, 0, 0}});
    late.run(stepped, c.runLimit);
    EXPECT_FALSE(late.anyFired());
    ASSERT_TRUE(stepped.halted());
    // SimStats is all 8-byte counters and doubles: no padding.
    EXPECT_EQ(std::memcmp(&plain.stats(), &stepped.stats(),
                          sizeof(SimStats)),
              0);
    EXPECT_EQ(plain.pc(), stepped.pc());
    for (Reg r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(plain.reg(r), stepped.reg(r)) << "r" << int{r};
    for (std::size_t w = 0; w < binary.dataImage.size(); ++w)
        ASSERT_EQ(plain.peekWord(w * 8), stepped.peekWord(w * 8))
            << "word " << w;

    const std::uint64_t trigger = end / 2;
    auto evicted = machine();
    FaultInjector mid({{FaultKind::CacheEvict, trigger, 0, 0}});
    mid.run(evicted, c.runLimit);
    EXPECT_TRUE(evicted.halted());
    ASSERT_EQ(mid.injected().size(), 1u);
    EXPECT_EQ(mid.injected()[0].hits, 1u);
    EXPECT_GE(mid.injected()[0].atEvent, trigger);
}

TEST(DifferentialOracle, GeneratedCleanCasesHaveNoViolations)
{
    GeneratorConfig gen;
    gen.faultProbability = 0.0;
    for (std::uint64_t i = 0; i < 20; ++i) {
        GenCase c = generateCase(7, i, gen);
        DifferentialReport report = runDifferential(c);
        EXPECT_FALSE(report.failed()) << report.render();
        for (const PolicyReport &pr : report.policies)
            EXPECT_EQ(pr.verdict, Verdict::Clean)
                << c.label() << ": " << report.render();
    }
}

TEST(DifferentialOracle, FaultedCasesAreNeverSilent)
{
    GeneratorConfig gen;
    gen.faultProbability = 1.0;
    for (std::uint64_t i = 0; i < 15; ++i) {
        GenCase c = generateCase(11, i, gen);
        DifferentialReport report = runDifferential(c);
        EXPECT_FALSE(report.failed()) << report.render();
    }
}

TEST(DifferentialOracle, ReportIsDeterministic)
{
    GeneratorConfig gen;
    gen.faultProbability = 1.0;
    GenCase c = generateCase(3, 4, gen);
    EXPECT_EQ(runDifferential(c).render(), runDifferential(c).render());
}

TEST(ReproFormat, RoundTripsGeneratedCases)
{
    for (std::uint64_t i = 0; i < 5; ++i) {
        GenCase original = generateCase(13, i);
        std::string text = renderRepro(original);

        GenCase parsed;
        std::string error;
        ASSERT_TRUE(parseRepro(text, parsed, error)) << error;
        // Round-trip exactness: re-rendering the parse reproduces the
        // file byte for byte, so every knob survived.
        EXPECT_EQ(renderRepro(parsed), text);
        EXPECT_EQ(parsed.label(), original.label());
        EXPECT_EQ(parsed.faults.size(), original.faults.size());
        EXPECT_EQ(parsed.policies, original.policies);
    }
}

TEST(ReproFormat, RejectsMalformedInput)
{
    GenCase out;
    std::string error;
    EXPECT_FALSE(parseRepro("", out, error));
    EXPECT_FALSE(parseRepro("{\"format\": \"bogus\"}", out, error));
    EXPECT_FALSE(parseRepro(
        "{\"format\": \"amnesiac-fuzz-case-v1\"}", out, error))
        << "a case with no chains must not parse";
}

TEST(Minimizer, ShrinksASilentDivergenceCase)
{
    // Hand the minimizer a certified failure: corrupt the one REC
    // checkpoint *and* turn the shadow check off. The recomputations go
    // wrong, nothing flags them, and the oracle classifies the silent
    // divergence as a Bug. Dress the case up with a decoy chain and
    // filler ALU work the minimizer should strip back off.
    GenCase c = ncChainCase();
    c.amnesic.shadowCheck = false;
    const std::uint64_t last_rec = (1ull << 15) - 1;
    c.faults = {{FaultKind::HistCorrupt, last_rec, 0xFF00, 0},
                {FaultKind::HistCorrupt, last_rec, 0xFF00, 1}};
    ChainSpec decoy;
    decoy.chainLen = 1;
    decoy.nc = false;
    decoy.logWords = 10;
    decoy.hotLogWords = 8;
    decoy.consumes = 500;
    c.spec.chains.push_back(decoy);
    c.spec.fillerAluPerIter = 3;

    ASSERT_TRUE(runDifferential(c).failed());

    MinimizeResult result = minimizeCase(c, 60);
    EXPECT_TRUE(result.report.failed());
    EXPECT_GT(result.probes, 0u);
    EXPECT_GT(result.accepted, 0u);
    // Structure shrank: the decoy chain and filler work are gone, and
    // only the checkpoint lane the slice actually reads is still hit.
    EXPECT_LE(result.minimized.spec.chains.size(), 1u);
    EXPECT_EQ(result.minimized.spec.fillerAluPerIter, 0u);
    EXPECT_LE(result.minimized.faults.size(), 1u);
}

TEST(Corpus, SeedCasesReplayCleanly)
{
    std::filesystem::path dir(AMNESIAC_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t replayed = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();

        GenCase c;
        std::string error;
        ASSERT_TRUE(parseRepro(text.str(), c, error)) << error;
        DifferentialReport report = runDifferential(c);
        // Corpus cases are past findings and crafted exemplars: they
        // must never regress into a certified bug.
        EXPECT_FALSE(report.failed()) << report.render();
        ++replayed;
    }
    EXPECT_GE(replayed, 5u);
}

TEST(Corpus, TracerIsTransparentOnSeedCases)
{
    // The observability layer's transparency claim, proven by the
    // strongest oracle in the repo: replay every corpus case with an
    // AmnesicTracer attached to every amnesic machine and demand the
    // *entire* differential report — stats, verdicts, divergence
    // details — render byte-identical to the untraced replay. Any
    // tracer callback that perturbed machine state would surface here.
    std::filesystem::path dir(AMNESIAC_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t captured_events = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();

        GenCase c;
        std::string error;
        ASSERT_TRUE(parseRepro(text.str(), c, error)) << error;

        AmnesicTracer tracer;
        DifferentialReport plain = runDifferential(c);
        DifferentialReport traced = runDifferential(c, &tracer);
        EXPECT_EQ(plain.render(), traced.render());
        captured_events += tracer.buffer().size();
    }
    // Not vacuous: the corpus exercises the amnesic opcodes, so the
    // tracer must have seen real events.
    EXPECT_GT(captured_events, 0u);
}

}  // namespace
}  // namespace amnesiac
