/**
 * @file
 * The artifact cache's contract (DESIGN.md §3h): a hit replays the
 * byte-identical binary, slices, selection stats and profiling-run
 * stats a cold compile would produce; any change to a compile input
 * (program bytes, energy model, hierarchy, compiler policy) changes the
 * key; a corrupted entry — truncated or bit-flipped anywhere — is a
 * silent miss that recompiles and heals the entry; and concurrent
 * prepares of the same key are safe (atomic publish, last writer wins
 * with equal bytes).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "core/compiler.h"
#include "isa/serialize.h"
#include "report/artifact_cache.h"
#include "report/experiment.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test cache directory under the gtest temp root. */
std::string
freshCacheDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   ("amnesiac-cache-" + tag + "-" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir.string();
}

CompileResult
compileCold(const Workload &workload, const CompilerConfig &config = {})
{
    AmnesicCompiler compiler(EnergyModel{}, HierarchyConfig{}, config);
    return compiler.compile(workload.program);
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(ArtifactCache, HitReplaysByteIdenticalCompile)
{
    Workload workload = makeWorkload("stream-recompute");
    CompileResult cold = compileCold(workload);

    ArtifactCache cache(freshCacheDir("hit"));
    std::uint64_t key = ArtifactCache::key(workload.program, EnergyConfig{},
                                           HierarchyConfig{},
                                           CompilerConfig{});
    EXPECT_FALSE(cache.load(key).has_value()) << "empty cache must miss";

    cache.store(key, cold);
    std::optional<CompileResult> hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(serializeProgram(cold.program),
              serializeProgram(hit->program));

    // Selection stats and the profiling run's stats round-trip
    // exactly.
    EXPECT_TRUE(cold.stats == hit->stats);
    EXPECT_GT(cold.profileRun.dynInstrs, 0u);
    EXPECT_TRUE(cold.profileRun == hit->profileRun);

    // Slices round-trip field-for-field (figures and ablations read
    // them from the cached result).
    ASSERT_EQ(cold.slices.size(), hit->slices.size());
    ASSERT_FALSE(cold.slices.empty())
        << "stream-recompute must select at least one slice for this "
           "test to mean anything";
    for (std::size_t i = 0; i < cold.slices.size(); ++i) {
        const RSlice &a = cold.slices[i];
        const RSlice &b = hit->slices[i];
        EXPECT_EQ(a.loadPc, b.loadPc);
        ASSERT_EQ(a.instrs.size(), b.instrs.size());
        for (std::size_t j = 0; j < a.instrs.size(); ++j) {
            EXPECT_EQ(a.instrs[j].origPc, b.instrs[j].origPc);
            EXPECT_EQ(a.instrs[j].op, b.instrs[j].op);
            EXPECT_EQ(a.instrs[j].rd, b.instrs[j].rd);
            EXPECT_EQ(a.instrs[j].imm, b.instrs[j].imm);
            EXPECT_EQ(a.instrs[j].numOps, b.instrs[j].numOps);
            EXPECT_EQ(a.instrs[j].level, b.instrs[j].level);
            EXPECT_EQ(a.instrs[j].seq, b.instrs[j].seq);
            for (int k = 0; k < 2; ++k) {
                EXPECT_EQ(a.instrs[j].ops[k].source,
                          b.instrs[j].ops[k].source);
                EXPECT_EQ(a.instrs[j].ops[k].reg, b.instrs[j].ops[k].reg);
                EXPECT_EQ(a.instrs[j].ops[k].producerIndex,
                          b.instrs[j].ops[k].producerIndex);
            }
        }
        EXPECT_EQ(a.height, b.height);
        EXPECT_EQ(a.leafCount, b.leafCount);
        EXPECT_EQ(a.histLeafCount, b.histLeafCount);
        EXPECT_EQ(a.ercEstimate, b.ercEstimate);
        EXPECT_EQ(a.eldEstimate, b.eldEstimate);
        EXPECT_EQ(a.profCount, b.profCount);
        EXPECT_EQ(a.profResidence, b.profResidence);
        EXPECT_EQ(a.valueLocalityPct, b.valueLocalityPct);
        EXPECT_EQ(a.dryRunMatchRate, b.dryRunMatchRate);
    }

    // A hit did no work: its wall-clock shares are zero.
    EXPECT_EQ(0.0, hit->profileSec);
    EXPECT_EQ(0.0, hit->analysisSec);
}

/** `Stats` with every byte nonzero and no two 8-byte fields alike;
 * the bytes stay below 0x3f, so every double is finite. */
template <typename Stats>
Stats
patterned()
{
    static_assert(std::is_trivially_copyable_v<Stats>);
    std::array<std::uint8_t, sizeof(Stats)> bytes;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(0x10 + i % 47);
    Stats stats;
    std::memcpy(&stats, bytes.data(), bytes.size());
    return stats;
}

TEST(ArtifactCache, EveryStatsFieldRoundTrips)
{
    // A field the entry's list drops, or reads in another's place,
    // breaks the equality.
    CompileResult stored = compileCold(makeWorkload("stream-recompute"));
    stored.stats = patterned<CompileStats>();
    stored.profileRun = patterned<SimStats>();
    ASSERT_TRUE(stored.profileRun == stored.profileRun);

    ArtifactCache cache(freshCacheDir("stats"));
    cache.store(7, stored);
    std::optional<CompileResult> hit = cache.load(7);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->stats == stored.stats);
    EXPECT_TRUE(hit->profileRun == stored.profileRun);
}

TEST(ArtifactCache, EveryDigestInputChangesTheKey)
{
    Workload workload = makeWorkload("stream-recompute");
    const std::uint64_t base = ArtifactCache::key(
        workload.program, EnergyConfig{}, HierarchyConfig{},
        CompilerConfig{});

    // Workload bytes.
    Workload other = makeWorkload("hist-stress");
    EXPECT_NE(base, ArtifactCache::key(other.program, EnergyConfig{},
                                       HierarchyConfig{},
                                       CompilerConfig{}));
    Program tweaked = workload.program;
    ASSERT_FALSE(tweaked.dataImage.empty());
    tweaked.dataImage[0] ^= 1;
    EXPECT_NE(base, ArtifactCache::key(tweaked, EnergyConfig{},
                                       HierarchyConfig{},
                                       CompilerConfig{}));

    // Energy model (feeds the profitability estimates).
    EnergyConfig energy;
    energy.memReadNj *= 2.0;
    EXPECT_NE(base, ArtifactCache::key(workload.program, energy,
                                       HierarchyConfig{},
                                       CompilerConfig{}));

    // Hierarchy (feeds the residence profile).
    HierarchyConfig hierarchy;
    hierarchy.l1.sizeBytes *= 2;
    EXPECT_NE(base, ArtifactCache::key(workload.program, EnergyConfig{},
                                       hierarchy, CompilerConfig{}));

    // Every content-affecting compiler policy field.
    auto with = [&](auto mutate) {
        CompilerConfig config;
        mutate(config);
        return ArtifactCache::key(workload.program, EnergyConfig{},
                                  HierarchyConfig{}, config);
    };
    EXPECT_NE(base, with([](CompilerConfig &c) {
                  c.builder.maxInstrs += 1;
              }));
    EXPECT_NE(base, with([](CompilerConfig &c) {
                  c.stabilityThreshold = 0.5;
              }));
    EXPECT_NE(base, with([](CompilerConfig &c) {
                  c.matchThreshold = 0.75;
              }));
    EXPECT_NE(base, with([](CompilerConfig &c) { c.minSiteCount = 99; }));
    EXPECT_NE(base, with([](CompilerConfig &c) {
                  c.profitabilityMargin = 2.0;
              }));
    EXPECT_NE(base, with([](CompilerConfig &c) {
                  c.globalResidenceModel = false;
              }));
    EXPECT_NE(base, with([](CompilerConfig &c) { c.oracleSet = true; }));
    EXPECT_NE(base, with([](CompilerConfig &c) { c.runLimit = 1 << 20; }));

    // The conservative-only pruner deliberately shares the key: its
    // output is byte-identical by machine-checked contract, so
    // separate entries would only waste compiles.
    EXPECT_EQ(base, with([](CompilerConfig &c) { c.prune = false; }));
}

TEST(ArtifactCache, KeyOfDefaultConfigIsPinned)
{
    // Existing cache directories stay valid only while the key's
    // canonical string keeps its exact bytes.
    EXPECT_EQ(ArtifactCache::key(makeWorkload("mcf", 1).program, {}, {},
                                 {}),
              0xee4636a1e96b66f1ull);
}

TEST(ArtifactCache, CorruptEntriesAreSilentMisses)
{
    Workload workload = makeWorkload("stream-recompute");
    CompileResult cold = compileCold(workload);

    ArtifactCache cache(freshCacheDir("corrupt"));
    std::uint64_t key = ArtifactCache::key(workload.program, EnergyConfig{},
                                           HierarchyConfig{},
                                           CompilerConfig{});
    cache.store(key, cold);
    const std::vector<std::uint8_t> good = readFile(cache.entryPath(key));
    ASSERT_TRUE(cache.load(key).has_value());

    // Truncation at several depths, including mid-header and one byte
    // short of complete.
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{17},
          good.size() / 2, good.size() - 1}) {
        std::vector<std::uint8_t> cut(good.begin(),
                                      good.begin() +
                                          static_cast<long>(keep));
        writeFile(cache.entryPath(key), cut);
        EXPECT_FALSE(cache.load(key).has_value())
            << "truncated to " << keep << " bytes";
    }

    // A single bit flip anywhere (sampled stride) must fail the
    // whole-entry checksum.
    for (std::size_t pos = 0; pos < good.size();
         pos += std::max<std::size_t>(1, good.size() / 23)) {
        std::vector<std::uint8_t> flipped = good;
        flipped[pos] ^= 0x10;
        writeFile(cache.entryPath(key), flipped);
        EXPECT_FALSE(cache.load(key).has_value())
            << "bit flip at byte " << pos;
    }

    // The intact entry still loads after all that (restore proves the
    // misses above came from the corruption, not the harness).
    writeFile(cache.entryPath(key), good);
    EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ArtifactCache, RunnerWarmRunHitsAndMatchesColdRun)
{
    Workload workload = makeWorkload("stream-recompute");
    ExperimentConfig config;
    config.jobs = 1;
    config.cacheDir = freshCacheDir("runner");

    ExperimentRunner runner(config);
    BenchmarkResult cold = runner.run(workload, {Policy::Compiler});
    EXPECT_EQ(0u, cold.manifest.cacheHits);

    BenchmarkResult warm = runner.run(workload, {Policy::Compiler});
    EXPECT_EQ(1u, warm.manifest.cacheHits);
    EXPECT_EQ(serializeProgram(cold.compiled.program),
              serializeProgram(warm.compiled.program));
    EXPECT_EQ(cold.compiled.stats.selected, warm.compiled.stats.selected);
    // The simulated outcome is untouched by where the binary came from.
    ASSERT_EQ(1u, warm.policies.size());
    ASSERT_EQ(1u, cold.policies.size());
    EXPECT_EQ(cold.policies[0].stats.dynInstrs,
              warm.policies[0].stats.dynInstrs);
    EXPECT_EQ(cold.policies[0].stats.recomputations,
              warm.policies[0].stats.recomputations);

    // A corrupted entry degrades to a cold run that heals the cache.
    CompilerConfig compile_config = config.compiler;
    compile_config.runLimit = config.runLimit;
    ArtifactCache cache(config.cacheDir);
    std::uint64_t key = ArtifactCache::key(
        workload.program, config.energy, config.hierarchy, compile_config);
    std::vector<std::uint8_t> bytes = readFile(cache.entryPath(key));
    bytes[bytes.size() / 2] ^= 0xFF;
    writeFile(cache.entryPath(key), bytes);
    BenchmarkResult healed = runner.run(workload, {Policy::Compiler});
    EXPECT_EQ(0u, healed.manifest.cacheHits);
    EXPECT_EQ(serializeProgram(cold.compiled.program),
              serializeProgram(healed.compiled.program));
    BenchmarkResult rewarmed = runner.run(workload, {Policy::Compiler});
    EXPECT_EQ(1u, rewarmed.manifest.cacheHits);

    // noCache wins over the configured directory.
    ExperimentConfig no_cache = config;
    no_cache.noCache = true;
    BenchmarkResult bypassed =
        ExperimentRunner(no_cache).run(workload, {Policy::Compiler});
    EXPECT_EQ(0u, bypassed.manifest.cacheHits);
}

TEST(ArtifactCache, ConcurrentPreparesOnOneKeyAreSafe)
{
    Workload workload = makeWorkload("stream-recompute");
    ExperimentConfig config;
    config.jobs = 1;
    config.cacheDir = freshCacheDir("concurrent");

    CompileResult golden = compileCold(workload);
    std::vector<std::uint8_t> golden_bytes =
        serializeProgram(golden.program);

    // Four racing pipelines, all cold-starting on the same empty cache:
    // every one must end with the golden binary regardless of who
    // publishes the entry first.
    constexpr int kRacers = 4;
    std::vector<BenchmarkResult> results(kRacers);
    std::vector<std::thread> racers;
    racers.reserve(kRacers);
    for (int i = 0; i < kRacers; ++i)
        racers.emplace_back([&, i] {
            ExperimentRunner runner(config);
            results[static_cast<std::size_t>(i)] =
                runner.run(workload, {Policy::Compiler});
        });
    for (std::thread &racer : racers)
        racer.join();
    for (const BenchmarkResult &result : results)
        EXPECT_EQ(golden_bytes, serializeProgram(result.compiled.program));

    // Whatever survived on disk is a valid entry equal to the golden.
    CompilerConfig compile_config = config.compiler;
    compile_config.runLimit = config.runLimit;
    ArtifactCache cache(config.cacheDir);
    std::uint64_t key = ArtifactCache::key(
        workload.program, config.energy, config.hierarchy, compile_config);
    std::optional<CompileResult> entry = cache.load(key);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(golden_bytes, serializeProgram(entry->program));
}

}  // namespace
}  // namespace amnesiac
